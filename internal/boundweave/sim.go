package boundweave

import (
	"errors"
	"runtime"
	"sync/atomic"
	"time"
	"unsafe"

	"zsim/internal/cache"
	"zsim/internal/config"
	"zsim/internal/engine"
	"zsim/internal/event"
	"zsim/internal/runctl"
	"zsim/internal/telemetry"
	"zsim/internal/trace"
	"zsim/internal/virt"
)

// Options control a simulation run.
type Options struct {
	// MaxInstrs stops the simulation once the total simulated instruction
	// count reaches this value (0 = run until every thread finishes).
	MaxInstrs uint64
	// HostThreads caps bound-phase parallelism (0 = cfg.HostThreads, which
	// itself defaults to the number of host CPUs).
	HostThreads int
	// Profiler, when non-nil, observes every access for the path-altering
	// interference characterization (Figure 2).
	Profiler *InterferenceProfiler
	// Seed randomizes the interval barrier's thread wake-up order.
	Seed uint64

	// Ctl is the cooperative cancellation token the run polls at interval
	// boundaries in both phases (and between bound rounds). Cancelling it
	// stops the run at the next boundary with partial state intact; nil
	// gives the run a private, never-cancelled token. Reaching MaxInstrs is a
	// normal completion, not a cancellation.
	Ctl *runctl.Token
	// MaxWallTime arms a wall-clock watchdog that cancels Ctl with
	// ReasonDeadline when the run exceeds it (0 = no limit). Enforcement is
	// cooperative: the run stops at the first boundary after the watchdog
	// fires, so overshoot is bounded by one interval's host time.
	MaxWallTime time.Duration
	// MaxCycles stops the run with ReasonCycleLimit once the global cycle
	// reaches it (0 = no limit) — the guard against runaway workloads whose
	// simulated time advances but whose threads never finish.
	MaxCycles uint64
	// Probe, when non-nil, receives a telemetry sample (atomic stores only)
	// at every interval boundary, plus phase-transition gauges. Observation
	// only: results are bit-identical with or without a probe.
	Probe *telemetry.Probe
	// Trace, when non-nil, receives bounded Chrome-trace slices: one bound
	// and one weave slice per interval on the phases track.
	Trace *telemetry.TraceSink
}

// Simulator drives the bound-weave loop over a built System and a scheduler
// full of workload threads. The bound phase runs on a worker pool whose first
// worker is the driver goroutine itself: each round's cores are split into
// per-worker home queues, and a worker that drains its own queue steals from
// the others. The weave phase runs on the driver goroutine. The pool's other
// workers are spawned on a run's first parallel round and stopped when Run
// returns, so steady-state intervals spawn no goroutines and none outlives
// Run.
type Simulator struct {
	Sys   *System
	Sched *virt.Scheduler
	opts  Options

	intervalLen uint64
	hostThreads int
	contention  bool

	recorders []*Recorder
	// slab holds every weave event of the current interval (nil without
	// contention); runWeave builds the cores' chains from it in core order.
	slab *event.Slab
	// lines[w] is bound worker w's cursor into the chip's line slab; the
	// cores worker w runs carry it to the caches.
	lines []*cache.LineCursor
	// pool is the bound phase's worker pool, sized hostThreads. Run stops
	// its workers, and so restarts its counters, when it returns.
	pool *engine.Pool
	// engine is the persistent weave engine (nil without contention),
	// reused every interval.
	engine *event.Engine
	// chains is runWeave's per-core chain-building scratch.
	chains []coreChain

	globalCycle uint64
	rngState    uint64

	// Bound-round execution state. workers is the bound worker count,
	// min(hostThreads, pool size, GOMAXPROCS), set by initRun; a round
	// uses roundWorkers = min(workers, its assignment count). homes[w] is
	// worker w's home queue for the round: a range of homeAsg (one slot per
	// core, allocated once) holding the round's cores c with
	// c*roundWorkers/numCores == w, in shuffled order, and the queue's draw
	// counter. boundTask is the pre-bound worker body (no per-interval
	// closures). asgA/asgB are the reusable double-buffered assignment
	// slices and coreCycles the per-round core clock snapshot handed to the
	// scheduler.
	workers      int
	roundWorkers int
	homes        []homeQueue
	homeAsg      []virt.Assignment
	intervalEnd  uint64
	boundTask    func(int)
	asgA, asgB   []virt.Assignment
	coreCycles   []uint64
	// lastTid tracks the last software thread each core ran, to charge
	// context-switch micro-state invalidation on thread changes.
	lastTid []int32

	// instrsTotal is the running total of simulated instructions, maintained
	// by the bound-phase workers so the interval loop never rescans all
	// cores.
	instrsTotal atomic.Uint64

	// ctl is the cooperative cancellation token (never nil; a private token
	// when Options.Ctl was nil), and phase names the phase currently
	// executing ("bound" or "weave") for fault attribution.
	ctl   *runctl.Token
	phase string

	// probe and traceSink are the run's telemetry taps (both optional, both
	// nil-safe at every call site). roundWorkers doubles as their
	// pool-occupancy gauge.
	probe     *telemetry.Probe
	traceSink *telemetry.TraceSink

	runStats
}

// runStats are one run's statistics, zeroed by a single assignment in
// initRun. Embedding keeps them spelled sim.Intervals, sim.Reason and so on.
// The embedded telemetry.Sample holds the run's counters (WeaveEvents counts
// the events the weave engine ran; ChainNanos is the part of WeaveNanos spent
// building the intervals' event chains, including pushing each core's
// ungated first events onto the engine's heap). Its gauges — Cycles, Instrs,
// the pool and thread fields — stay zero here: publishTelemetry fills them
// into the copy it publishes.
type runStats struct {
	telemetry.Sample
	TotalFeedback uint64

	// Failure report: Reason is ReasonNone after a clean run (completion or
	// MaxInstrs reached) and the typed failure otherwise; ReasonDeadlocked
	// means no thread was runnable and no blocked thread could ever be woken
	// by the passage of simulated time.
	// On ReasonPanicked, PanicErr carries the recovered capture and
	// FailPhase the phase that was executing. Partial statistics and the
	// system's metrics remain valid after any failure.
	Reason    runctl.Reason
	PanicErr  *runctl.PanicError
	FailPhase string
}

// homeQueue is one worker's share of a bound round: homeAsg[lo:hi], drawn
// from by incrementing next. It is padded to a cache line so that draws on
// different queues do not contend.
type homeQueue struct {
	next   atomic.Int64
	lo, hi int
	_      [40]byte
}

// NewSimulator wires a built system, a populated scheduler and run options
// into a runnable simulation. It allocates the simulator's shape and capacity
// and leaves every per-run field to initRun, the path Reset takes too.
func NewSimulator(sys *System, sched *virt.Scheduler, opts Options) *Simulator {
	cfg := sys.Cfg
	host := resolveHostThreads(opts, cfg)
	// The per-core bookkeeping is sized exactly with plain allocations: the
	// construction arena's minimum chunk per element type would leave
	// kilobytes of slack per type on a small chip.
	n := len(sys.Cores)
	s := &Simulator{
		Sys:         sys,
		Sched:       sched,
		intervalLen: cfg.IntervalCycles,
		contention:  cfg.Contention,
		lines:       cache.WorkerCursors(sys.Root.Arena(), host),
		pool:        engine.NewPool(host),
		homes:       make([]homeQueue, host),
		homeAsg:     make([]virt.Assignment, n),
		coreCycles:  make([]uint64, n),
		lastTid:     make([]int32, n),
	}
	s.boundTask = s.boundWorker

	if s.contention {
		// All recorders share one allocation. The event slab allocates its
		// chunks lazily, on first use, 64 KB at a time: its footprint tracks
		// the busiest interval to within one small step, so a run whose peak
		// moves a little from one rep to the next allocates nearly the same.
		recs := make([]Recorder, n)
		s.recorders = make([]*Recorder, n)
		for coreID := range recs {
			s.recorders[coreID] = &recs[coreID]
		}
		s.slab = event.NewSlab(64 << 10 / int(unsafe.Sizeof(event.Event{})))
		s.engine = new(event.Engine)
		s.chains = make([]coreChain, n)
	}
	s.initRun(opts)
	return s
}

// resolveHostThreads is the bound phase's host thread count for opts: 0
// defers to the configuration, and 0 there to the host's CPUs.
func resolveHostThreads(opts Options, cfg *config.System) int {
	host := opts.HostThreads
	if host <= 0 {
		host = cfg.HostThreads
	}
	if host <= 0 {
		host = runtime.NumCPU()
	}
	return host
}

// initRun puts every per-run field in its initial state for opts: the
// options and what derives from them, the bound rounds' scratch, the per-core
// bookkeeping, the weave state, the recorders and observers the cores carry,
// and the run statistics. NewSimulator calls it on a just-built system and
// Reset after rewinding the system, so a reset simulator is a fresh one by
// construction (TestResetMatchesFresh checks it field by field).
func (s *Simulator) initRun(opts Options) {
	s.opts = opts
	s.hostThreads = resolveHostThreads(opts, s.Sys.Cfg)
	s.rngState = opts.Seed*6364136223846793005 + 1442695040888963407
	s.ctl = opts.Ctl
	if s.ctl == nil {
		s.ctl = new(runctl.Token)
	}
	s.probe = opts.Probe
	s.traceSink = opts.Trace

	s.globalCycle = 0
	// GOMAXPROCS is read here, once per run: rounds would pay for the
	// runtime's scheduler lock.
	s.workers = min(s.hostThreads, s.pool.Parallelism())
	s.roundWorkers, s.intervalEnd = 0, 0
	clear(s.homes)
	clear(s.homeAsg)
	s.asgA, s.asgB = s.asgA[:0], s.asgB[:0]
	clear(s.coreCycles)
	for i := range s.lastTid {
		s.lastTid[i] = -1
	}
	s.instrsTotal.Store(s.totalInstrs())
	s.phase = ""
	s.runStats = runStats{}

	// Cores are built, and reset, with no recorder or observer attached.
	for coreID, c := range s.Sys.Cores {
		if s.contention {
			s.recorders[coreID].Reset()
			c.SetRecorder(s.recorders[coreID])
		}
		if opts.Profiler != nil {
			c.SetObserver(opts.Profiler)
		}
	}
	if s.contention {
		s.slab.Reset()
		s.engine.Reset()
		clear(s.chains)
	}
}

// GlobalCycle returns the current interval-aligned global cycle.
func (s *Simulator) GlobalCycle() uint64 { return s.globalCycle }

// nextRand is a small xorshift for shuffling assignment order.
func (s *Simulator) nextRand() uint64 {
	x := s.rngState
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	s.rngState = x
	return x
}

// totalInstrs sums the simulated instructions over all cores (slow path,
// used to seed the running counter and by tests; the interval loop reads the
// atomically maintained instrsTotal instead).
func (s *Simulator) totalInstrs() uint64 {
	var n uint64
	for _, c := range s.Sys.Cores {
		n += c.Instrs()
	}
	return n
}

// Reset rewinds a simulator — and the System underneath it — to the state a
// freshly built pair would have, so the same instance can serve another run
// without reconstruction. Everything expensive stays warm: the construction
// arena's chunks, the weave engine's heap, the per-core recorders, the event
// slab and contention models. Only their mutable state rewinds: System.Reset
// rewinds the chip, and initRun, the per-run initialiser NewSimulator also
// ends with, does the rest. A Reset simulator therefore produces bit-identical
// results to a fresh build for the same options and workloads.
//
// opts may vary the run-variable knobs (seed, limits, cancellation token,
// profiler, host threads: a new host thread count gets a new worker pool and
// new worker line cursors); shape-defining state (interval length,
// contention models) comes from the System and is retained. The scheduler
// is not touched — the caller clears and repopulates it with workloads
// before the next Run.
//
// Reset requires a simulator whose last Run did not panic: a fault can stop a
// model mid-update, so a panicked simulator must be dropped instead (Reset
// returns an error and leaves the simulator untouched).
func (s *Simulator) Reset(opts Options) error {
	if s.Reason == runctl.ReasonPanicked {
		return errors.New("boundweave: cannot Reset a simulator after a panicked run; build a fresh one")
	}
	s.Sys.Reset()
	if host := resolveHostThreads(opts, s.Sys.Cfg); host != len(s.lines) {
		// No worker outlives Run, so another host thread count costs only
		// the new pool's slots and the new workers' cursors.
		s.lines = cache.WorkerCursors(s.Sys.Root.Arena(), host)
		s.pool = engine.NewPool(host)
		s.homes = make([]homeQueue, host)
	}
	s.initRun(opts)
	return nil
}

// Run executes the bound-weave loop until every thread finishes, a
// configured bound (instructions or intervals) is reached, the cancellation
// token trips (caller cancel, wall-time watchdog, cycle limit), the workload
// deadlocks, or a worker panics. It returns the total number of simulated
// instructions; after an abnormal stop, Reason (and for panics PanicErr /
// FailPhase) describes the failure and all statistics reflect the partial
// run. Run never lets a panic escape, and whatever way it stops, it stops the
// bound phase's worker goroutines before it returns.
func (s *Simulator) Run() uint64 {
	// Last on the defer stack: after the final publication has read the
	// pool's counters, and after the containment recover below.
	defer s.pool.Close()
	defer func() {
		if r := recover(); r != nil {
			// Fault containment: a panic in a bound-phase pool worker arrives
			// here as a *runctl.PanicError re-raised by the pool; anything
			// else (a fault on the driver goroutine itself, including every
			// weave-phase fault) is captured now.
			s.PanicErr = runctl.NewPanicError(r, -1)
			s.Reason = runctl.ReasonPanicked
			s.FailPhase = s.phase
		}
	}()
	// The wall-clock watchdog is armed for exactly the duration of Run: it
	// can only trip the token, which the loop below polls, so enforcement
	// stays cooperative and the overshoot is bounded by one interval.
	if w := runctl.Watch(s.ctl, s.opts.MaxWallTime); w != nil {
		defer w.Stop()
	}
	s.probe.BeginRun(s.opts.MaxCycles)
	defer func() {
		// Final publication (runs first on the defer stack, so it also fires
		// while a panic is unwinding toward the containment recover above;
		// the pool is quiescent by then). Everything it reads is valid after
		// any termination.
		s.publishTelemetry()
		s.probe.SetPhase(telemetry.PhaseDone)
	}()
	for {
		// Interval-boundary cancellation point (one atomic load).
		if r := s.ctl.Reason(); r != runctl.ReasonNone {
			s.Reason = r
			break
		}
		if s.opts.MaxCycles > 0 && s.globalCycle >= s.opts.MaxCycles {
			s.Reason = runctl.ReasonCycleLimit
			break
		}
		if s.Sched.LiveThreads() == 0 {
			break
		}
		if s.opts.MaxInstrs > 0 && s.instrsTotal.Load() >= s.opts.MaxInstrs {
			break
		}
		if !s.runInterval() {
			break
		}
	}
	return s.instrsTotal.Load()
}

// runInterval executes one bound phase (as a sequence of mid-interval
// rounds) and (optionally) one weave phase. It returns false when the
// simulation can make no further progress.
func (s *Simulator) runInterval() bool {
	s.Intervals++
	asg := s.Sched.ScheduleIntervalInto(s.globalCycle, s.asgA[:0])
	intervalEnd := s.globalCycle + s.intervalLen
	if len(asg) == 0 {
		s.asgA = asg
		// Everything is blocked. Only syscall completions are driven by the
		// passage of simulated time, so fast-forward the clock straight to
		// the earliest wake instead of stepping empty intervals one by one.
		wake, ok := s.Sched.NextSyscallWake()
		if !ok {
			// Nothing runnable and nothing time can wake: the workload is
			// deadlocked (e.g. a barrier no one else will reach). Stop
			// instead of spinning forever.
			s.Reason = runctl.ReasonDeadlocked
			return false
		}
		if wake > intervalEnd {
			s.globalCycle = wake
		} else {
			s.globalCycle = intervalEnd
		}
		s.publishTelemetry()
		return true
	}

	// Shuffle the wake-up order to avoid systematic bias (the interval
	// barrier's third role in Section 3.2.1). The shuffle is seeded, so it
	// does not perturb determinism.
	for i := len(asg) - 1; i > 0; i-- {
		j := int(s.nextRand() % uint64(i+1))
		asg[i], asg[j] = asg[j], asg[i]
	}

	// Bound phase: each round, up to s.workers pool workers drain their
	// home queues and then steal; at most that many simulated cores run
	// concurrently, and when one finishes its slice the next waiting core is
	// taken up — the barrier's "moderate parallelism" role. Between rounds
	// the scheduler arbitrates the recorded synchronization operations in
	// deterministic simulated-time order and immediately refills cores freed
	// by blocking threads (mid-interval join/leave).
	boundStart := time.Now()
	s.phase = "bound"
	s.probe.SetPhase(telemetry.PhaseBound)
	s.intervalEnd = intervalEnd
	cur, spare := asg, s.asgB
	for len(cur) > 0 && !s.ctl.Cancelled() {
		s.BoundRounds++
		s.fillHomes(cur, min(s.workers, len(cur)))
		s.pool.Run(s.roundWorkers, s.boundTask)
		for i, c := range s.Sys.Cores {
			s.coreCycles[i] = c.Cycle()
		}
		next := s.Sched.ResolveRound(cur, s.globalCycle, intervalEnd, s.coreCycles, spare[:0])
		cur, spare = next, cur
	}
	s.asgA, s.asgB = cur, spare
	s.Sched.EndInterval(intervalEnd)
	boundDur := time.Since(boundStart)
	s.BoundNanos += boundDur.Nanoseconds()
	s.traceSink.Add(telemetry.TrackPhases, "bound", boundStart, boundDur, s.Intervals)

	// Weave phase: retime the recorded accesses with contention models. The
	// phase boundary is the second cancellation point of the interval: a run
	// cancelled during the bound phase skips the weave entirely (its partial
	// interval is being discarded anyway).
	if s.contention && !s.ctl.Cancelled() {
		weaveStart := time.Now()
		s.phase = "weave"
		s.probe.SetPhase(telemetry.PhaseWeave)
		s.runWeave()
		s.phase = "bound"
		s.probe.SetPhase(telemetry.PhaseBound)
		weaveDur := time.Since(weaveStart)
		s.WeaveNanos += weaveDur.Nanoseconds()
		s.traceSink.Add(telemetry.TrackPhases, "weave", weaveStart, weaveDur, s.Intervals)
	}

	s.globalCycle = intervalEnd
	s.publishTelemetry()
	return true
}

// publishTelemetry stores the run's current counters into the probe: a copy
// of the run's Sample with the gauges filled in, built on the stack, so it
// adds no allocation to the interval loop. All sources are quiescent at
// interval boundaries (the pool's workers are parked between phases).
func (s *Simulator) publishTelemetry() {
	if s.probe == nil {
		return
	}
	smp := s.Sample
	sc := s.Sched.Counts()
	smp.Cycles, smp.Instrs = s.globalCycle, s.instrsTotal.Load()
	smp.LiveThreads, smp.RunnableThreads = sc.Live, sc.Runnable
	smp.PoolRuns, smp.PoolWakes = s.pool.Stats()
	smp.PoolWorkers = s.roundWorkers
	s.probe.Publish(smp)
}

// fillHomes splits a round's assignments into the home queues of its w
// workers: core c goes to queue c*w/numCores, so a core keeps its host worker
// from round to round, and each queue keeps the shuffled order. With one
// worker the single queue is the shuffled list itself.
func (s *Simulator) fillHomes(cur []virt.Assignment, w int) {
	n := len(s.Sys.Cores)
	homes := s.homes[:w]
	for i := range homes {
		homes[i].hi = 0
	}
	for _, a := range cur {
		homes[a.Core*w/n].hi++
	}
	lo := 0
	for i := range homes {
		h := &homes[i]
		h.lo, h.hi, lo = lo, lo, lo+h.hi
		h.next.Store(0)
	}
	for _, a := range cur {
		h := &homes[a.Core*w/n]
		s.homeAsg[h.hi] = a
		h.hi++
	}
	s.roundWorkers = w
}

// boundWorker is the bound-phase worker body: worker w drains its
// home queue, then steals from the others in (w+k) % workers order, until
// the round is drained. Results do not depend on which worker ran a core.
func (s *Simulator) boundWorker(w int) {
	homes := s.homes[:s.roundWorkers]
	for k := range homes {
		h := &homes[(w+k)%len(homes)]
		for {
			i := h.lo + int(h.next.Add(1)) - 1
			if i >= h.hi {
				break
			}
			s.runCoreRound(w, s.homeAsg[i])
		}
	}
}

// runCoreRound simulates one core until it reaches the interval end, its
// thread blocks or finishes, or the thread pauses for lock arbitration.
// Synchronization operations are recorded thread-locally and resolved by the
// scheduler at the round boundary — the per-block hot path takes no locks.
func (s *Simulator) runCoreRound(w int, a virt.Assignment) {
	c := s.Sys.Cores[a.Core]
	c.SetLineCursor(s.lines[w])
	th := a.Thread
	instrsBefore := c.Instrs()

	if s.lastTid[a.Core] != int32(th.ID) {
		s.lastTid[a.Core] = int32(th.ID)
		c.ContextSwitch()
	}

	start := c.Cycle()
	if s.globalCycle > start {
		start = s.globalCycle
	}
	if th.Cycle > start {
		start = th.Cycle
	}
	c.SetCycle(start)

	intervalEnd := s.intervalEnd
	for c.Cycle() < intervalEnd {
		blk := th.Stream.NextBlock()
		if blk.Sync == trace.SyncDone {
			th.Record(blk.Sync, blk.SyncID, c.Cycle(), blk.SyncArg)
			break
		}
		c.SimulateBlock(blk)
		if blk.Sync == trace.SyncNone {
			continue
		}
		th.Cycle = c.Cycle()
		th.Record(blk.Sync, blk.SyncID, th.Cycle, blk.SyncArg)
		// A release lets the thread run on. Every other operation ends its
		// round: a lock acquire pauses for deterministic arbitration
		// (granted acquires resume on this core next round at this same
		// cycle, contended ones free the core for another thread).
		if blk.Sync != trace.SyncLockRelease {
			break
		}
	}
	if c.Cycle() > th.Cycle {
		th.Cycle = c.Cycle()
	}
	s.instrsTotal.Add(c.Instrs() - instrsBefore)
}

// runWeave builds the interval's event graph from the per-core recorders,
// one event per contended hop, executes it on the persistent engine, and
// feeds the contention delays back into the core clocks. Once the slab, the
// heap and the hop logs have warmed up, a steady-state weave interval
// performs no heap allocation.
func (s *Simulator) runWeave() {
	chainStart := time.Now()
	// Build chains core by core from the one slab, so sequence numbers order
	// events by (core, program order).
	s.slab.Reset()
	for coreID, rec := range s.recorders {
		c := &s.chains[coreID]
		*c = coreChain{}
		for i := range rec.recs {
			c.add(s.slab, s.engine, s.Sys, &rec.recs[i], rec.hops(&rec.recs[i]))
		}
	}
	s.ChainNanos += time.Since(chainStart).Nanoseconds()

	s.engine.Run()
	s.WeaveEvents += uint64(s.slab.InUse()) // Run executes every event built

	// Feedback: each core's clock advances by the contention delay of its
	// latest-completing access.
	for coreID := range s.chains {
		if delay := s.chains[coreID].feedback(); delay > 0 {
			s.Sys.Cores[coreID].AddDelay(delay)
			s.TotalFeedback += delay
		}
	}

	// Recycle the interval's traces. The contention models keep their clocks
	// across intervals (they are absolute-cycle based), so they need no reset.
	for _, rec := range s.recorders {
		rec.Reset()
	}
}
