package serve

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"math"
	"net/http"
	"net/http/pprof"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"zsim"
	"zsim/internal/runctl"
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
	// RetainJobs bounds how many finished jobs, and how many finished
	// campaigns, stay addressable by ID (default 1024; negative = unlimited):
	// a retained job keeps its status, full result and GET /results row.
	// Older ones are evicted and answer 410; the audit log keeps their
	// terminal records.
	RetainJobs int
	// MaxCampaignPoints bounds a single campaign expansion (default
	// campaign.DefaultMaxPoints).
	MaxCampaignPoints int
	// Pprof mounts net/http/pprof under /debug/pprof/ (off by default: the
	// profiling surface stays dark unless explicitly requested with -pprof).
	Pprof bool
}

// Server is the zsimd job service: an http.Handler plus the worker pool
// behind it. Create with New, serve with net/http, stop with Shutdown.
//
// mu is the one lock for everything the daemon keeps about jobs: the
// admission queue, the warm pool, every job's state, the campaigns, the
// finished-job ring and the metrics. The leaf locks taken under it are the
// audit log's and each telemetry probe's. Simulator construction, Reset, runs
// and Close, response encoding and network writes, and audit flush and sync
// all happen outside it.
type Server struct {
	opts    Options
	mux     *http.ServeMux
	audit   *auditLog
	workers sync.WaitGroup

	baseCtx    context.Context // parent of every job context
	baseCancel context.CancelFunc

	mu sync.Mutex
	// ready wakes idle workers (on mu) when a job is queued or the queue
	// closes.
	ready   sync.Cond
	sched   scheduler // class-aware admission queue
	pool    *simPool  // warm-simulator pool (nil when Options.PoolSize == 0)
	metrics metrics   // /metrics scrape registry
	// jobs holds every addressable job: the live ones and those in done.
	jobs     map[string]*job
	seq      int
	draining bool
	// done is the one record of finished jobs, oldest first (see file);
	// doneTotal counts every job ever filed, so the first
	// doneTotal-len(done) have left it.
	done      []*job
	doneTotal uint64

	// campaigns holds the addressable campaigns: the active ones, which have
	// work, in admission order, and the newest RetainJobs retired ones.
	campaigns map[string]*campaignState
	active    []*campaignState
	retired   []*campaignState
	campSeq   int
}

// New builds a Server and starts its workers.
func New(opts Options) *Server {
	opts.Workers = max(opts.Workers, 1)
	if opts.QueueDepth <= 0 {
		opts.QueueDepth = 16
	}
	opts.RetainJobs = cmp.Or(opts.RetainJobs, 1024)
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		opts:       opts,
		mux:        http.NewServeMux(),
		audit:      newAuditLog(opts.Audit),
		baseCtx:    ctx,
		baseCancel: cancel,
		sched:      scheduler{capacity: opts.QueueDepth},
		pool:       newSimPool(opts.PoolSize, opts.PoolPerShape),
		metrics:    newMetrics(),
		jobs:       make(map[string]*job),
		campaigns:  make(map[string]*campaignState),
	}
	s.ready.L = &s.mu
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

// reply is an answer decided under s.mu and written after it is released, so
// no response encoding or network write ever holds the lock.
type reply struct {
	code  int
	body  any
	retry int // Retry-After seconds of a shed (0 = none)
}

func errReply(code int, msg string) reply {
	return reply{code: code, body: errorBody{Error: msg}}
}

// respond runs decide under s.mu and writes its reply after unlocking.
func (s *Server) respond(w http.ResponseWriter, decide func() reply) {
	s.mu.Lock()
	rep := decide()
	s.mu.Unlock()
	if rep.retry > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(rep.retry))
	}
	writeJSON(w, rep.code, rep.body)
}

// shed counts and audits a refused submission and returns its 503. The
// Retry-After hint is the expected time to drain the current backlog plus one
// job, using the EWMA of observed job latency (1s before any job has
// finished), clamped to [1, 60] so clients neither hammer nor stall. Callers
// hold s.mu.
func (s *Server) shed(reason, jobID, msg string) reply {
	est := cmp.Or(s.metrics.ewmaLatency, 1) * float64(s.sched.size+s.metrics.inflight+1) / float64(s.opts.Workers)
	s.metrics.sheds[reason]++
	s.audit.record("shed", jobID, "", msg)
	rep := errReply(http.StatusServiceUnavailable, msg)
	rep.retry = min(60, max(1, int(math.Ceil(est))))
	return rep
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
	s.respond(w, func() reply {
		switch j, shed := s.admit(&req, class, nil, -1); shed {
		case "":
			return reply{code: http.StatusAccepted, body: j.status()}
		case "draining":
			return s.shed(shed, "", "shutting down")
		default:
			return s.shed(shed, j.id, "queue full")
		}
	})
}

// admit is the one way a job enters the server: all-or-nothing under s.mu,
// which callers hold, it takes the next job ID, enqueues the job, registers
// it (and counts a campaign child against its campaign), so an admitted job
// is always observable via GET /jobs/{id} and reaches a worker (or a
// drain-time cancellation) exactly once. It then writes the submit audit
// record.
//
// A refusal returns the shed reason: "draining", or "queue_full" when the
// class limit is reached. An interactive job refused by the queue still takes
// its ID, so the caller's shed record is attributable and IDs never repeat; a
// refused campaign child takes none and waits for the next pump.
func (s *Server) admit(req *JobRequest, class int, camp *campaignState, point int) (j *job, shed string) {
	if s.draining {
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
		return nil, "queue_full"
	}
	s.seq++
	if !queued {
		return j, "queue_full"
	}
	s.ready.Signal()
	s.jobs[j.id] = j
	detail := ""
	if camp != nil {
		camp.next++
		camp.outstanding++
		camp.children = append(camp.children, j.id)
		detail = fmt.Sprintf("campaign=%s point=%d", camp.id, point)
	}
	s.audit.record("submit", j.id, StateQueued, detail)
	return j, ""
}

// lookup resolves the request's job; callers hold s.mu. When there is none to
// serve it returns nil and the answer of notRetained.
func (s *Server) lookup(r *http.Request) (*job, reply) {
	id := r.PathValue("id")
	if j := s.jobs[id]; j != nil {
		return j, reply{}
	}
	return nil, notRetained("job", id, s.seq)
}

// notRetained is the one miss rule for jobs and campaigns: an ID the server
// issued ("<kind>-N" with 0 < N <= last), whose record has left retention or
// was never kept (a shed job), answers 410 pointing at the audit log; any
// other ID answers 404. The number is parsed from the ID, so no tombstone is
// kept.
func notRetained(kind, id string, last int) reply {
	prefix := kind + "-"
	if n, err := strconv.Atoi(strings.TrimPrefix(id, prefix)); err == nil && n > 0 && n <= last && id == prefix+strconv.Itoa(n) {
		return errReply(http.StatusGone, fmt.Sprintf("%s %s is no longer retained; its records are in the audit log", kind, id))
	}
	return errReply(http.StatusNotFound, "no such "+kind)
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.respond(w, func() reply {
		jobs := slices.SortedFunc(maps.Values(s.jobs), func(a, b *job) int { return a.seq - b.seq })
		out := make([]JobStatus, len(jobs))
		for i, j := range jobs {
			out[i] = j.status()
		}
		return reply{code: http.StatusOK, body: out}
	})
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	s.respond(w, func() reply {
		j, miss := s.lookup(r)
		if j == nil {
			return miss
		}
		return reply{code: http.StatusOK, body: j.status()}
	})
}

// handleResult serves a finished job's full result. The result is immutable
// once set, so encoding it after the lock is released is safe.
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	s.respond(w, func() reply {
		j, miss := s.lookup(r)
		switch {
		case j == nil:
			return miss
		case !j.terminal():
			return errReply(http.StatusConflict, "job not finished")
		}
		return reply{code: http.StatusOK, body: j.result}
	})
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	s.respond(w, func() reply {
		j, miss := s.lookup(r)
		switch {
		case j == nil:
			return miss
		case !j.requestCancel():
			return errReply(http.StatusConflict, "job already finished")
		}
		s.metrics.cancels++
		s.audit.record("cancel", j.id, "", "cancel requested")
		return reply{code: http.StatusAccepted, body: j.status()}
	})
}

// healthBody is the /healthz payload: liveness, uptime, queue and worker
// occupancy, warm-pool counters and job retention.
type healthBody struct {
	Status        string    `json:"status"`
	Uptime        string    `json:"uptime"`
	QueueDepth    int       `json:"queueDepth"`
	QueueCapacity int       `json:"queueCapacity"`
	InFlight      int       `json:"inFlight"`
	Workers       int       `json:"workers"`
	Pool          poolStats `json:"pool"`
	Campaigns     int       `json:"campaigns"`
	JobsRetained  int       `json:"jobsRetained"`
	JobsEvicted   uint64    `json:"jobsEvicted"`
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	s.respond(w, func() reply {
		retained, evicted := s.retention()
		return reply{code: http.StatusOK, body: healthBody{
			Status:        "ok",
			Uptime:        time.Since(s.metrics.start).Round(time.Millisecond).String(),
			QueueDepth:    s.sched.size,
			QueueCapacity: s.opts.QueueDepth,
			InFlight:      s.metrics.inflight,
			Workers:       s.opts.Workers,
			Pool:          s.pool.stats(),
			Campaigns:     len(s.campaigns),
			JobsRetained:  retained,
			JobsEvicted:   evicted,
		}}
	})
}

// handleReady reports readiness for new work: a draining server is alive
// (healthz) but no longer ready, which lets a load balancer stop routing to
// it while in-flight jobs finish.
func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	s.respond(w, func() reply {
		if s.draining {
			return reply{code: http.StatusServiceUnavailable, body: map[string]string{"status": "draining"}}
		}
		return reply{code: http.StatusOK, body: map[string]string{"status": "ready"}}
	})
}

// worker runs queued jobs, highest class first, until Shutdown closes the
// queue and it is drained.
func (s *Server) worker() {
	defer s.workers.Done()
	for {
		s.mu.Lock()
		j, ok := s.sched.next()
		for !ok && !s.sched.closed {
			s.ready.Wait()
			j, ok = s.sched.next()
		}
		s.mu.Unlock()
		if !ok {
			return
		}
		s.runJob(j)
	}
}

// poolJanitor periodically expires pool entries idle longer than ttl, until
// shutdown cancels the base context.
func (s *Server) poolJanitor(ttl time.Duration) {
	t := time.NewTicker(max(ttl/4, 10*time.Millisecond))
	defer t.Stop()
	for {
		select {
		case <-s.baseCtx.Done():
			return
		case <-t.C:
			s.mu.Lock()
			s.pool.expireIdle(time.Now().Add(-ttl))
			s.mu.Unlock()
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
		s.mu.Lock()
		if s.pool.put(cfg.ShapeKey(), sim, true) {
			pooled++
		}
		s.mu.Unlock()
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

	started := time.Now()
	s.mu.Lock()
	if j.cancelled {
		s.mu.Unlock()
		s.finish(j, StateCancelled, &JobResult{Error: "cancelled before start", Failure: &Failure{Reason: runctl.ReasonCancelled.String()}}, 0, 0)
		return
	}
	j.state, j.started, j.cancel = StateRunning, started.UTC(), cancel
	s.metrics.inflight++
	s.audit.record("start", j.id, StateRunning, "")
	s.mu.Unlock()

	res, reused, shape, err := s.execute(ctx, j)
	result, state := classify(res, err)
	result.Reused = reused
	s.finish(j, state, result, shape, time.Since(started))
}

// finish is the one exit of every job a worker takes, whether it ran or was
// cancelled while queued. In one critical section it counts the metrics,
// files the job into done with its result row, publishes the terminal state,
// writes the job's one terminal audit record ("finish", carrying the row),
// folds a campaign child into its campaign and releases follow-on campaign
// work; so a client that has seen the job finish also finds it in /metrics
// and /results, and every scrape counts it everywhere or nowhere. It flushes
// the audit log after unlocking.
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
	detail := result.Error
	if !started {
		detail = "cancelled while queued"
	} else if result.Reused {
		detail = "reused=true"
		if result.Error != "" {
			detail += " " + result.Error
		}
	}

	s.mu.Lock()
	s.metrics.jobDone(state, row.Shape, dur, result.Reused, started)
	j.row = row
	s.file(j)
	j.state, j.finished, j.cancel, j.result = state, now, nil, result
	s.audit.write(auditRecord{Event: "finish", Job: j.id, State: state, Detail: detail, Result: &j.row})
	if j.camp != nil {
		s.campaignChildDone(j)
	}
	s.pump()
	s.mu.Unlock()
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
// While the run executes, the simulator's telemetry probe is published on the
// job (GET /jobs/{id} progress) and in the metrics registry's live aggregate.
// The deferred teardown detaches it — folding the final snapshot into the
// completed engine totals — in the same critical section that returns the
// simulator to the warm pool, where the next job would rewind the probe.
func (s *Server) execute(ctx context.Context, j *job) (res *zsim.Result, reused bool, shape uint64, err error) {
	req := j.req
	var sim *zsim.Simulator
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("job setup panicked: %w", runctl.NewPanicError(r, -1))
		}
		// Cancelled and deadline-exceeded runs stop at clean interval
		// boundaries and rewind safely; a panicked run (an aborted engine) or
		// a failed setup cannot be rewound.
		var re *zsim.RunError
		keep := sim != nil && (err == nil || errors.As(err, &re) && re.Reason != zsim.Panicked)
		s.mu.Lock()
		s.detach(j)
		if keep {
			s.pool.put(shape, sim, false)
		}
		s.mu.Unlock()
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
	shape = cfg.ShapeKey()
	s.mu.Lock()
	pooled := s.pool.get(shape)
	s.mu.Unlock()
	if pooled != nil && pooled.Reset(cfg) == nil {
		sim, reused = pooled, true
	}
	if sim == nil {
		sim, err = zsim.New(cfg)
		if err != nil {
			return nil, false, shape, err
		}
	}
	s.mu.Lock()
	j.probe = sim.Probe()
	s.metrics.running[j.probe] = struct{}{}
	s.mu.Unlock()
	for _, w := range req.Workloads {
		params, ok := zsim.LookupWorkload(w.Name)
		if !ok {
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
	if req.Seed != 0 {
		sim.SetSeed(req.Seed)
	}
	res, err = sim.RunContext(ctx)
	return res, reused, shape, err
}

// classify maps a run outcome to the job's terminal state and wire result.
func classify(res *zsim.Result, err error) (*JobResult, string) {
	out := &JobResult{}
	if res != nil {
		out.Metrics = res.Metrics
		out.Intervals = res.Intervals
		out.WeaveEvents = res.WeaveEvents
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
	first := !s.draining
	// Workers exit after draining what was admitted.
	s.draining, s.sched.closed = true, true
	s.ready.Broadcast()
	s.mu.Unlock()
	if !first {
		s.workers.Wait()
		return
	}
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
		s.mu.Lock()
		for _, j := range s.jobs {
			if j.requestCancel() {
				s.audit.record("cancel", j.id, "", "shutdown: grace expired")
			}
		}
		s.mu.Unlock()
		<-done
	}
	s.baseCancel()
	s.mu.Lock()
	s.pool.close()
	s.drainCampaigns()
	retained, _ := s.retention()
	s.mu.Unlock()
	s.audit.record("drained", "", "", strconv.Itoa(retained))
	s.audit.close()
}
