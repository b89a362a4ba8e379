package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
	"sync"
	"time"

	"zsim"
	"zsim/internal/runctl"
	"zsim/internal/telemetry"
)

// Options configure a Server. Zero values get sensible defaults.
type Options struct {
	// Workers is the number of concurrent simulation workers (default 1).
	// Each worker runs one job at a time through the zsim facade.
	Workers int
	// QueueDepth bounds the admission queue (default 16). Admission is
	// class-aware: low-priority (campaign) jobs are refused once the queue is
	// 3/4 full, normal jobs at capacity, and high-priority jobs get reserved
	// headroom above capacity — so a saturating sweep cannot starve
	// interactive submissions. Refused jobs are shed with 503 and a
	// Retry-After derived from queue depth and observed job latency.
	QueueDepth int
	// JobTimeout is the default per-job wall-time budget (0 = unlimited).
	// Individual requests can only tighten it, never extend it.
	JobTimeout time.Duration
	// Audit receives the append-only JSONL audit log (nil = disabled).
	Audit io.Writer
	// PoolSize bounds the warm-simulator pool: finished simulators are
	// retained keyed by configuration shape and rewound (Reset) for the next
	// same-shape job instead of being reconstructed. 0 disables pooling.
	PoolSize int
	// PoolPerShape bounds retained simulators per shape key (default 2 when
	// pooling is enabled), so one hot shape cannot monopolize the pool.
	PoolPerShape int
	// PoolIdleExpiry releases pooled simulators whose shape stopped arriving:
	// a simulator idle in the pool longer than this is closed and its arena
	// memory freed. 0 disables expiry (long-lived daemons then pin memory for
	// every shape they ever pooled).
	PoolIdleExpiry time.Duration
	// RetainJobs bounds how many terminal jobs stay addressable via
	// GET /jobs/{id} (default 1024; negative = unlimited). Older terminal
	// jobs are evicted — their compact rows remain queryable in the result
	// store and the audit log keeps the full history.
	RetainJobs int
	// StoreSize bounds the in-memory result store ring (default 4096 rows).
	StoreSize int
	// MaxCampaignPoints bounds a single campaign expansion (default
	// campaign.DefaultMaxPoints).
	MaxCampaignPoints int
	// Pprof mounts net/http/pprof under /debug/pprof/ (off by default: the
	// profiling surface stays dark unless explicitly requested with -pprof).
	Pprof bool
}

// Server is the zsimd job service: an http.Handler plus the worker pool
// behind it. Create with New, serve with net/http, stop with Shutdown.
type Server struct {
	opts    Options
	mux     *http.ServeMux
	audit   *auditLog
	pool    *simPool     // warm-simulator pool (nil when Options.PoolSize == 0)
	metrics *metrics     // /metrics scrape registry
	sched   *scheduler   // class-aware admission queue
	store   *resultStore // queryable ring of recent result rows

	baseCtx    context.Context // parent of every job context
	baseCancel context.CancelFunc

	mu       sync.Mutex
	jobs     map[string]*job
	order    []string // submission order, for stable listings
	seq      int
	draining bool
	// finished lists terminal job IDs oldest-first; retention evicts from its
	// head once it outgrows Options.RetainJobs.
	finished []string
	evicted  uint64

	campaigns map[string]*campaignState
	campOrder []string
	campSeq   int
	// pumpMu serializes campaign child release (see pumpCampaigns).
	pumpMu sync.Mutex

	workers sync.WaitGroup
}

// New builds a Server and starts its workers.
func New(opts Options) *Server {
	if opts.Workers <= 0 {
		opts.Workers = 1
	}
	if opts.QueueDepth <= 0 {
		opts.QueueDepth = 16
	}
	if opts.RetainJobs == 0 {
		opts.RetainJobs = 1024
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		opts:       opts,
		mux:        http.NewServeMux(),
		audit:      newAuditLog(opts.Audit),
		pool:       newSimPool(opts.PoolSize, opts.PoolPerShape),
		metrics:    newMetrics(),
		sched:      newScheduler(opts.QueueDepth),
		store:      newResultStore(opts.StoreSize),
		baseCtx:    ctx,
		baseCancel: cancel,
		jobs:       make(map[string]*job),
		campaigns:  make(map[string]*campaignState),
	}
	s.routes()
	s.workers.Add(opts.Workers)
	for i := 0; i < opts.Workers; i++ {
		go s.worker()
	}
	if s.pool != nil && opts.PoolIdleExpiry > 0 {
		go s.poolJanitor(opts.PoolIdleExpiry)
	}
	s.audit.record("serve", "", "", fmt.Sprintf("workers=%d queue=%d pool=%d", opts.Workers, opts.QueueDepth, opts.PoolSize))
	return s
}

func (s *Server) routes() {
	s.mux.HandleFunc("POST /jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /jobs", s.handleList)
	s.mux.HandleFunc("GET /jobs/{id}", s.handleStatus)
	s.mux.HandleFunc("GET /jobs/{id}/result", s.handleResult)
	s.mux.HandleFunc("POST /jobs/{id}/cancel", s.handleCancel)
	s.mux.HandleFunc("POST /campaigns", s.handleCampaignSubmit)
	s.mux.HandleFunc("GET /campaigns", s.handleCampaignList)
	s.mux.HandleFunc("GET /campaigns/{id}", s.handleCampaignStatus)
	s.mux.HandleFunc("POST /campaigns/{id}/cancel", s.handleCampaignCancel)
	s.mux.HandleFunc("GET /results", s.handleResults)
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /readyz", s.handleReady)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	if s.opts.Pprof {
		s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// writeJSON is the single response serializer.
func writeJSON(w http.ResponseWriter, code int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

type errorBody struct {
	Error string `json:"error"`
}

// retryAfterSeconds derives the shed Retry-After hint from queue state: the
// expected time to drain the current backlog plus one job, using the EWMA of
// observed job latency (1s floor before any job has finished). Clamped to
// [1, 60] so clients neither hammer nor stall.
func (s *Server) retryAfterSeconds() int {
	avg := s.metrics.avgLatencySeconds()
	if avg <= 0 {
		avg = 1
	}
	backlog := s.sched.depth() + s.metrics.inflightCount()
	est := avg * float64(backlog+1) / float64(s.opts.Workers)
	secs := int(math.Ceil(est))
	if secs < 1 {
		secs = 1
	}
	if secs > 60 {
		secs = 60
	}
	return secs
}

// shedResponse writes a 503 with the queue-state-derived Retry-After, and
// records the shed in metrics and the audit log.
func (s *Server) shedResponse(w http.ResponseWriter, reason, jobID, msg string) {
	w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
	writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: msg})
	s.metrics.shed(reason)
	s.audit.record("shed", jobID, "", msg)
}

// handleSubmit admits a job or sheds it. Admission is all-or-nothing under
// the server lock: the job is registered and enqueued atomically, so a
// submitted job is always observable via GET /jobs/{id} and always reaches a
// worker (or a drain-time cancellation) exactly once.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req JobRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "bad request: " + err.Error()})
		return
	}
	if err := req.validate(); err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		return
	}
	class, _ := parsePriority(req.Priority) // validate() already vetted it

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.shedResponse(w, "draining", "", "shutting down")
		return
	}
	s.seq++
	j := &job{
		id:        fmt.Sprintf("job-%d", s.seq),
		req:       &req,
		state:     StateQueued,
		submitted: time.Now().UTC(),
		class:     class,
		point:     -1,
	}
	if !s.sched.enqueue(j, class) {
		// The job was never admitted (not registered, not queued), but its ID
		// stays burned so the shed audit record is attributable and IDs never
		// repeat.
		s.mu.Unlock()
		s.shedResponse(w, "queue_full", j.id, "queue full")
		return
	}
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	s.mu.Unlock()

	s.audit.record("submit", j.id, StateQueued, "")
	writeJSON(w, http.StatusAccepted, j.status())
}

func (s *Server) lookup(r *http.Request) (*job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[r.PathValue("id")]
	return j, ok
}

// missingJob answers a lookup miss: 410 for jobs evicted by retention (their
// row survives in /results and the audit log), 404 for IDs never admitted.
func (s *Server) missingJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if s.store.has(id) {
		writeJSON(w, http.StatusGone, errorBody{
			Error: fmt.Sprintf("job %s evicted from retention; see /results?job=%s or the audit log", id, id),
		})
		return
	}
	writeJSON(w, http.StatusNotFound, errorBody{Error: "no such job"})
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	ids := append([]string(nil), s.order...)
	jobs := make([]*job, 0, len(ids))
	for _, id := range ids {
		if j := s.jobs[id]; j != nil { // evicted IDs stay in order until compaction
			jobs = append(jobs, j)
		}
	}
	s.mu.Unlock()
	out := make([]JobStatus, 0, len(jobs))
	for _, j := range jobs {
		out = append(out, j.status())
	}
	sort.SliceStable(out, func(a, b int) bool { return out[a].Submitted.Before(out[b].Submitted) })
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(r)
	if !ok {
		s.missingJob(w, r)
		return
	}
	writeJSON(w, http.StatusOK, j.status())
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(r)
	if !ok {
		s.missingJob(w, r)
		return
	}
	j.mu.Lock()
	done := j.terminal()
	res := j.result
	j.mu.Unlock()
	if !done || res == nil {
		writeJSON(w, http.StatusConflict, errorBody{Error: "job not finished"})
		return
	}
	writeJSON(w, http.StatusOK, res)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(r)
	if !ok {
		s.missingJob(w, r)
		return
	}
	if !j.requestCancel() {
		writeJSON(w, http.StatusConflict, errorBody{Error: "job already finished"})
		return
	}
	s.metrics.cancelRequested()
	s.audit.record("cancel", j.id, "", "cancel requested")
	writeJSON(w, http.StatusAccepted, j.status())
}

// healthBody is the /healthz payload: liveness, uptime, queue and worker
// occupancy, warm-pool counters, result-store occupancy and job retention.
type healthBody struct {
	Status        string    `json:"status"`
	Uptime        string    `json:"uptime"`
	QueueDepth    int       `json:"queueDepth"`
	QueueCapacity int       `json:"queueCapacity"`
	InFlight      int       `json:"inFlight"`
	Workers       int       `json:"workers"`
	Pool          poolStats `json:"pool"`
	Campaigns     int       `json:"campaigns"`
	StoreRows     int       `json:"storeRows"`
	StoreEvicted  uint64    `json:"storeEvicted"`
	JobsRetained  int       `json:"jobsRetained"`
	JobsEvicted   uint64    `json:"jobsEvicted"`
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	retained := len(s.jobs)
	evicted := s.evicted
	ncamp := len(s.campaigns)
	s.mu.Unlock()
	rows, storeEvicted := s.store.stats()
	writeJSON(w, http.StatusOK, healthBody{
		Status:        "ok",
		Uptime:        s.metrics.uptimeString(),
		QueueDepth:    s.sched.depth(),
		QueueCapacity: s.opts.QueueDepth,
		InFlight:      s.metrics.inflightCount(),
		Workers:       s.opts.Workers,
		Pool:          s.pool.stats(),
		Campaigns:     ncamp,
		StoreRows:     rows,
		StoreEvicted:  storeEvicted,
		JobsRetained:  retained,
		JobsEvicted:   evicted,
	})
}

// handleReady reports readiness for new work: a draining server is alive
// (healthz) but no longer ready, which lets a load balancer stop routing to
// it while in-flight jobs finish.
func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
}

// worker drains the scheduler until Shutdown closes it.
func (s *Server) worker() {
	defer s.workers.Done()
	for {
		j, ok := s.sched.next()
		if !ok {
			return
		}
		s.runJob(j)
	}
}

// poolJanitor periodically expires pool entries idle longer than ttl, until
// shutdown cancels the base context.
func (s *Server) poolJanitor(ttl time.Duration) {
	tick := ttl / 4
	if tick < 10*time.Millisecond {
		tick = 10 * time.Millisecond
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-s.baseCtx.Done():
			return
		case <-t.C:
			s.pool.expireIdle(time.Now().Add(-ttl))
		}
	}
}

// Prewarm constructs a warm simulator for each configuration and parks it in
// the pool, so a daemon starts with its expected shapes already hot. Configs
// that exceed pool capacity are built and immediately discarded; the count of
// actually pooled simulators is returned. No-op with pooling disabled.
func (s *Server) Prewarm(cfgs []*zsim.Config) (int, error) {
	if s.pool == nil {
		return 0, nil
	}
	pooled := 0
	for i, c := range cfgs {
		cfg := *c // copy: Validate mutates defaults in place
		if err := cfg.Validate(); err != nil {
			return pooled, fmt.Errorf("prewarm config %d: %w", i, err)
		}
		sim, err := zsim.New(&cfg)
		if err != nil {
			return pooled, fmt.Errorf("prewarm config %d: %w", i, err)
		}
		sim.SetReusable(true)
		if s.pool.prewarm(cfg.ShapeKey(), sim) {
			pooled++
		} else {
			sim.Close()
		}
	}
	s.audit.record("prewarm", "", "", fmt.Sprintf("configs=%d pooled=%d", len(cfgs), pooled))
	return pooled, nil
}

// runJob executes one job end to end: transition to running, execute under a
// cancellable per-job context, classify the outcome, and audit every step.
// A panic anywhere in setup or teardown is contained here — one bad job must
// never take a worker (or the daemon) down.
func (s *Server) runJob(j *job) {
	ctx, cancel := context.WithCancel(s.baseCtx)
	defer cancel()

	// Every finished job is counted in the metrics before its terminal state
	// is published, so a client that saw it finish also sees it in /metrics.
	j.mu.Lock()
	if j.cancelled {
		s.metrics.jobDone(StateCancelled, shapeLabel(0), 0, false, false)
		j.state = StateCancelled
		j.finished = time.Now().UTC()
		result := &JobResult{Error: "cancelled before start", Failure: &Failure{Reason: runctl.ReasonCancelled.String()}}
		j.result = result
		j.mu.Unlock()
		s.audit.record("finish", j.id, StateCancelled, "cancelled while queued")
		s.jobFinished(j, StateCancelled, result, 0, 0)
		s.audit.flush()
		return
	}
	j.state = StateRunning
	started := time.Now()
	j.started = started.UTC()
	j.cancel = cancel
	j.mu.Unlock()
	s.metrics.jobStarted()
	s.audit.record("start", j.id, StateRunning, "")

	res, reused, shape, err := s.execute(ctx, j)
	result, state := classify(res, err)
	result.Reused = reused
	dur := time.Since(started)
	s.metrics.jobDone(state, shapeLabel(shape), dur, reused, true)

	j.mu.Lock()
	j.state = state
	j.finished = time.Now().UTC()
	j.cancel = nil
	j.result = result
	j.mu.Unlock()
	detail := result.Error
	if reused {
		detail = "reused=true"
		if result.Error != "" {
			detail += " " + result.Error
		}
	}
	s.audit.record("finish", j.id, state, detail)
	s.jobFinished(j, state, result, shape, dur)
	s.audit.flush()
}

// jobFinished is the single post-terminal hook: it files the job's compact
// result row (store + audit archive), folds campaign children into their
// campaign, enforces job retention, and releases follow-on campaign work.
// Called from runJob with no locks held.
func (s *Server) jobFinished(j *job, state string, result *JobResult, shape uint64, dur time.Duration) {
	row := ResultRow{
		Job:      j.id,
		Shape:    shapeLabel(shape),
		Outcome:  state,
		Seconds:  dur.Seconds(),
		Finished: time.Now().UTC(),
	}
	if result != nil {
		row.Reused = result.Reused
		if m := result.Metrics; m != nil {
			row.Cycles = m.Cycles
			row.Instructions = m.Instrs
			row.IPC = m.IPC
			row.SimMIPS = m.SimMIPS
		}
	}
	if j.camp != nil {
		row.Campaign = j.camp.id
		point := j.point
		row.Point = &point
	}
	s.store.insert(row)
	s.audit.recordResult(&row)
	s.metrics.resultFiled()
	if j.camp != nil {
		s.campaignChildDone(j, state, result, dur)
	}
	s.evictOldJobs(j.id)
	s.pumpCampaigns()
}

// evictOldJobs appends the newly terminal job to the finish-order list and
// evicts the oldest terminal jobs beyond the retention bound. Eviction only
// drops the in-memory job record — the result store and audit log remain.
func (s *Server) evictOldJobs(id string) {
	retain := s.opts.RetainJobs
	s.mu.Lock()
	s.finished = append(s.finished, id)
	if retain >= 0 {
		for len(s.finished) > retain {
			victim := s.finished[0]
			s.finished = s.finished[1:]
			if _, ok := s.jobs[victim]; ok {
				delete(s.jobs, victim)
				s.evicted++
			}
		}
	}
	// Compact the submission-order list once evictions leave it mostly holes.
	if len(s.order) > 2*(len(s.jobs)+16) {
		kept := make([]string, 0, len(s.jobs))
		for _, jid := range s.order {
			if _, ok := s.jobs[jid]; ok {
				kept = append(kept, jid)
			}
		}
		s.order = kept
	}
	s.mu.Unlock()
}

// execute builds (or checks out of the warm pool) and runs the simulation
// for one job, reporting whether a warm simulator served it and the config's
// shape key (0 when the config never built). The zsim facade already recovers
// panics raised inside the run; the deferred recover here is the service's
// outer ring, catching construction-time faults so the worker goroutine
// survives arbitrary job input — and discarding whatever simulator was in
// hand, since a panicked setup leaves it unrewindable.
//
// While the run executes, the simulator's telemetry probe is published in two
// places: on the job (GET /jobs/{id} progress) and in the metrics registry's
// live aggregate. Both are detached — and the final snapshot folded into the
// completed engine totals — before the simulator can reach the warm pool,
// where the next job would rewind the probe.
func (s *Server) execute(ctx context.Context, j *job) (res *zsim.Result, reused bool, shape uint64, err error) {
	req := j.req
	var sim *zsim.Simulator
	var probe *telemetry.Probe
	detached := false
	detach := func() {
		if probe == nil || detached {
			return
		}
		detached = true
		j.setProbe(nil)
		s.metrics.detachProbe(probe, probe.Snapshot())
	}
	defer func() {
		if r := recover(); r != nil {
			pe := runctl.NewPanicError(r, -1)
			err = fmt.Errorf("job setup panicked: %w", pe)
			if sim != nil {
				sim.Close()
			}
		}
		detach()
	}()

	cfg, err := req.buildConfig()
	if err != nil {
		return nil, false, 0, err
	}
	// The effective wall-time budget is the tighter of the request's and the
	// server's; the library watchdog enforces it and reports
	// deadline-exceeded with partial metrics.
	if t := time.Duration(req.TimeoutMillis) * time.Millisecond; t > 0 && (cfg.MaxWallTime == 0 || t < cfg.MaxWallTime) {
		cfg.MaxWallTime = t
	}
	if s.opts.JobTimeout > 0 && (cfg.MaxWallTime == 0 || s.opts.JobTimeout < cfg.MaxWallTime) {
		cfg.MaxWallTime = s.opts.JobTimeout
	}

	// Warm path: a pooled simulator of this shape rewinds to serve the job.
	// Reset validates the shape match itself; a refusal (which shouldn't
	// happen for a pool hit) falls back to fresh construction.
	key := cfg.ShapeKey()
	shape = key
	if pooled := s.pool.get(key); pooled != nil {
		if rerr := pooled.Reset(cfg); rerr != nil {
			pooled.Close()
		} else {
			sim, reused = pooled, true
		}
	}
	if sim == nil {
		sim, err = zsim.New(cfg)
		if err != nil {
			return nil, false, shape, err
		}
		if s.pool != nil {
			sim.SetReusable(true)
		}
	}
	probe = sim.Probe()
	j.setProbe(probe)
	s.metrics.attachProbe(probe)
	for _, w := range req.Workloads {
		params, ok := zsim.LookupWorkload(w.Name)
		if !ok {
			sim.Close()
			return nil, reused, shape, fmt.Errorf("unknown workload %q", w.Name)
		}
		if w.Blocks > 0 {
			params.BlocksPerThread = w.Blocks
		}
		threads := w.Threads
		if threads <= 0 {
			threads = 1
		}
		sim.AddWorkload(w.Name, params, threads)
	}
	sim.SetMaxInstructions(req.MaxInstructions)
	sim.SetHostThreads(req.HostThreads)
	if req.Seed != 0 {
		sim.SetSeed(req.Seed)
	}
	res, err = sim.RunContext(ctx)
	// Fold the final telemetry snapshot into the completed totals before the
	// simulator becomes poolable (see detach's contract above).
	detach()

	// Return the simulator to the pool unless the run panicked (an aborted
	// engine cannot be rewound; the facade already released its resources) or
	// the pool is full/closed. Cancelled and deadline-exceeded runs stop at
	// clean interval boundaries and rewind safely.
	discard := false
	if err != nil {
		var re *zsim.RunError
		if !errors.As(err, &re) || re.Reason == zsim.Panicked {
			discard = true
		}
	}
	if discard || !s.pool.put(key, sim) {
		sim.Close()
	}
	return res, reused, shape, err
}

// classify maps a run outcome to the job's terminal state and wire result.
func classify(res *zsim.Result, err error) (*JobResult, string) {
	out := &JobResult{}
	if res != nil {
		out.Summary = res.Summary()
		out.Metrics = res.Metrics
		out.Intervals = res.Intervals
		out.WeaveEvents = res.WeaveEvents
		out.Stalled = res.Stalled
		out.ArenaChunks = res.ArenaChunks
		out.ArenaBytes = res.ArenaBytes
	}
	if err == nil {
		return out, StateSucceeded
	}
	out.Error = err.Error()
	var re *zsim.RunError
	if errors.As(err, &re) {
		out.Partial = true
		out.Failure = &Failure{
			Reason:   re.Reason.String(),
			Phase:    re.Phase,
			Interval: re.Interval,
			Cycle:    re.Cycle,
			Panic:    re.Panic,
		}
		if re.Reason == zsim.Cancelled {
			return out, StateCancelled
		}
	}
	return out, StateFailed
}

// Shutdown gracefully drains the server: admission stops immediately
// (submissions get 503, readyz flips to draining), queued and in-flight jobs
// get the grace period to finish, and whatever is still running after the
// grace is cooperatively cancelled — those jobs end Cancelled with partial
// metrics rather than being lost. Campaign progress is persisted to the audit
// log before it closes. The audit log is flushed and synced before Shutdown
// returns. It is idempotent; the first call wins.
func (s *Server) Shutdown(grace time.Duration) {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.waitWorkers()
		return
	}
	s.draining = true
	s.mu.Unlock()
	s.sched.close() // workers exit after draining what was admitted
	s.audit.record("shutdown", "", "", fmt.Sprintf("grace=%s", grace))

	done := make(chan struct{})
	go func() {
		s.workers.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(grace):
		// Grace expired: cancel every in-flight (and still-queued) job. Runs
		// stop at the next interval boundary and report partial results, so
		// this wait is bounded by one simulation interval per job.
		s.audit.record("shutdown", "", "", "grace expired; cancelling in-flight jobs")
		s.cancelAll()
		<-done
	}
	s.baseCancel()
	s.pool.close()
	s.drainCampaigns()
	s.audit.record("drained", "", "", strconv.Itoa(s.jobCount()))
	s.audit.close()
}

// cancelAll delivers a cancel to every non-terminal job.
func (s *Server) cancelAll() {
	s.mu.Lock()
	jobs := make([]*job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	s.mu.Unlock()
	for _, j := range jobs {
		if j.requestCancel() {
			s.audit.record("cancel", j.id, "", "shutdown: grace expired")
		}
	}
}

func (s *Server) jobCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.jobs)
}

func (s *Server) waitWorkers() {
	s.workers.Wait()
}
