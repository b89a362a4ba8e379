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
	// jobs are evicted (410) — their compact rows remain queryable in the
	// result store and the audit log keeps the full history.
	RetainJobs int
	// StoreSize bounds the result store: GET /results serves the rows of the
	// newest StoreSize finished jobs (default 4096).
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
	pool    *simPool   // warm-simulator pool (nil when Options.PoolSize == 0)
	metrics *metrics   // /metrics scrape registry
	sched   *scheduler // class-aware admission queue

	baseCtx    context.Context // parent of every job context
	baseCancel context.CancelFunc

	mu sync.Mutex
	// jobs holds every addressable job: the live ones and those in done.
	jobs     map[string]*job
	seq      int
	draining bool
	// done is the one record of finished jobs, oldest first (see file);
	// doneTotal counts every job ever filed, so the first
	// doneTotal-len(done) have left it.
	done      []*job
	doneTotal uint64

	campaigns map[string]*campaignState
	campList  []*campaignState // creation order
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
	if opts.StoreSize <= 0 {
		opts.StoreSize = 4096
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		opts:       opts,
		mux:        http.NewServeMux(),
		audit:      newAuditLog(opts.Audit),
		pool:       newSimPool(opts.PoolSize, opts.PoolPerShape),
		metrics:    newMetrics(),
		sched:      newScheduler(opts.QueueDepth),
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
	return min(60, max(1, int(math.Ceil(est))))
}

// shedResponse writes a 503 with the queue-state-derived Retry-After, and
// records the shed in metrics and the audit log.
func (s *Server) shedResponse(w http.ResponseWriter, reason, jobID, msg string) {
	w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
	writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: msg})
	s.metrics.shed(reason)
	s.audit.record("shed", jobID, "", msg)
}

// handleSubmit admits a job or sheds it.
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
	switch j, shed := s.admit(&req, class, nil, -1); shed {
	case "":
		writeJSON(w, http.StatusAccepted, j.status())
	case "draining":
		s.shedResponse(w, shed, "", "shutting down")
	default:
		s.shedResponse(w, shed, j.id, "queue full")
	}
}

// admit is the one way a job enters the server: all-or-nothing under the
// server lock, it takes the next job ID, enqueues the job, registers it (and
// counts a campaign child against its campaign), so an admitted job is
// always observable via GET /jobs/{id} and reaches a worker (or a drain-time
// cancellation) exactly once. It then writes the submit audit record.
//
// A refusal returns the shed reason: "draining", or "queue_full" when the
// class limit is reached. An interactive job refused by the queue still takes
// its ID, so the caller's shed record is attributable and IDs never repeat; a
// refused campaign child takes none and waits for the next pump.
func (s *Server) admit(req *JobRequest, class int, camp *campaignState, point int) (j *job, shed string) {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil, "draining"
	}
	j = &job{
		id:        fmt.Sprintf("job-%d", s.seq+1),
		seq:       s.seq + 1,
		req:       req,
		state:     StateQueued,
		submitted: time.Now().UTC(),
		class:     class,
		camp:      camp,
		point:     point,
	}
	queued := s.sched.enqueue(j, class)
	if !queued && camp != nil {
		s.mu.Unlock()
		return nil, "queue_full"
	}
	s.seq++
	if !queued {
		s.mu.Unlock()
		return j, "queue_full"
	}
	s.jobs[j.id] = j
	detail := ""
	if camp != nil {
		camp.mu.Lock()
		camp.next++
		camp.outstanding++
		camp.children = append(camp.children, j.id)
		camp.mu.Unlock()
		detail = fmt.Sprintf("campaign=%s point=%d", camp.id, point)
	}
	s.mu.Unlock()
	s.audit.record("submit", j.id, StateQueued, detail)
	return j, ""
}

// lookup resolves the request's job. When there is none to serve it answers
// itself and returns nil: 410 for a job past the retention window (its row
// survives in /results and the audit log), 404 for an ID never admitted or
// already out of the finished-job record.
func (s *Server) lookup(w http.ResponseWriter, r *http.Request) *job {
	id := r.PathValue("id")
	s.mu.Lock()
	j := s.jobs[id]
	gone := j != nil && j.gone
	s.mu.Unlock()
	switch {
	case j == nil:
		writeJSON(w, http.StatusNotFound, errorBody{Error: "no such job"})
	case gone:
		writeGone(w, id)
	default:
		return j
	}
	return nil
}

func writeGone(w http.ResponseWriter, id string) {
	writeJSON(w, http.StatusGone, errorBody{
		Error: fmt.Sprintf("job %s evicted from retention; see /results?job=%s or the audit log", id, id),
	})
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	jobs := make([]*job, 0, len(s.jobs))
	for _, j := range s.jobs {
		if !j.gone {
			jobs = append(jobs, j)
		}
	}
	s.mu.Unlock()
	sort.Slice(jobs, func(a, b int) bool { return jobs[a].seq < jobs[b].seq })
	out := make([]JobStatus, 0, len(jobs))
	for _, j := range jobs {
		out = append(out, j.status())
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	if j := s.lookup(w, r); j != nil {
		writeJSON(w, http.StatusOK, j.status())
	}
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(w, r)
	if j == nil {
		return
	}
	j.mu.Lock()
	done := j.terminal()
	res := j.result
	j.mu.Unlock()
	switch {
	case !done:
		writeJSON(w, http.StatusConflict, errorBody{Error: "job not finished"})
	case res == nil: // left the retention window since lookup
		writeGone(w, j.id)
	default:
		writeJSON(w, http.StatusOK, res)
	}
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(w, r)
	if j == nil {
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
	rows, storeEvicted, retained, evicted := s.windowsLocked()
	ncamp := len(s.campList)
	s.mu.Unlock()
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
// cancellable per-job context, classify the outcome and finish it. A panic
// anywhere in setup or teardown is contained here — one bad job must never
// take a worker (or the daemon) down.
func (s *Server) runJob(j *job) {
	ctx, cancel := context.WithCancel(s.baseCtx)
	defer cancel()

	j.mu.Lock()
	if j.cancelled {
		j.mu.Unlock()
		s.finish(j, StateCancelled, &JobResult{Error: "cancelled before start", Failure: &Failure{Reason: runctl.ReasonCancelled.String()}}, 0, 0)
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
	s.finish(j, state, result, shape, time.Since(started))
}

// finish is the one exit of every job a worker takes, whether it ran or was
// cancelled while queued. It builds the job's result row, counts the metrics
// and files the job into done before publishing the terminal state, so a
// client that has seen the job finish also finds it in /metrics and /results.
// It then writes the finish and result audit records, folds a campaign child
// into its campaign, releases follow-on campaign work and flushes the audit
// log. Called by the job's worker with no locks held.
func (s *Server) finish(j *job, state string, result *JobResult, shape uint64, dur time.Duration) {
	started := !j.started.IsZero() // written by this worker in runJob
	now := time.Now().UTC()
	row := ResultRow{
		Job:      j.id,
		Shape:    shapeLabel(shape),
		Outcome:  state,
		Reused:   result.Reused,
		Seconds:  dur.Seconds(),
		Finished: now,
	}
	if m := result.Metrics; m != nil {
		row.Cycles, row.Instructions, row.IPC, row.SimMIPS = m.Cycles, m.Instrs, m.IPC, m.SimMIPS
	}
	if j.camp != nil {
		row.Campaign, row.Point = j.camp.id, &j.point
	}
	s.metrics.jobDone(state, row.Shape, dur, result.Reused, started)

	s.mu.Lock()
	j.row = row
	s.file(j)
	j.mu.Lock()
	j.state, j.finished, j.cancel, j.result = state, now, nil, result
	j.mu.Unlock()
	s.mu.Unlock()

	detail := result.Error
	if !started {
		detail = "cancelled while queued"
	} else if result.Reused {
		detail = "reused=true"
		if result.Error != "" {
			detail += " " + result.Error
		}
	}
	s.audit.record("finish", j.id, state, detail)
	s.audit.write(auditRecord{Event: "result", Job: j.id, State: state, Result: &j.row})
	if j.camp != nil {
		s.campaignChildDone(j)
	}
	s.pumpCampaigns()
	s.audit.flush()
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
	s.mu.Lock()
	_, _, retained, _ := s.windowsLocked()
	s.mu.Unlock()
	s.audit.record("drained", "", "", strconv.Itoa(retained))
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

func (s *Server) waitWorkers() {
	s.workers.Wait()
}
