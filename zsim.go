// Package zsim is a fast, parallel, user-level microarchitectural simulator
// for large multicore chips, reproducing "ZSim: Fast and Accurate
// Microarchitectural Simulation of Thousand-Core Systems" (Sanchez &
// Kozyrakis, ISCA 2013) as a pure-Go library.
//
// The simulator combines three techniques from the paper:
//
//   - instruction-driven core timing models (a simple IPC=1 core and a
//     detailed Westmere-class out-of-order core) whose per-instruction decode
//     work is done once per static basic block, the way zsim leverages
//     dynamic binary translation;
//   - the bound-weave two-phase parallelization algorithm, which simulates
//     cores in parallel over small intervals with zero-load latencies (bound
//     phase) and then replays the recorded accesses through detailed
//     event-driven contention models (weave phase);
//   - lightweight user-level virtualization: a thread scheduler with
//     affinities and oversubscription, simulated-time synchronization (locks,
//     barriers, blocking system calls), and timing/system virtualization.
//
// # Quick start
//
//	cfg := zsim.WestmereConfig()
//	sim, _ := zsim.New(cfg)
//	sim.AddNamedWorkload("blackscholes", 6)  // 6 threads of a PARSEC-like kernel
//	res, _ := sim.Run()
//	fmt.Println(res.Summary())
//
// Workloads are deterministic synthetic program models (package
// internal/trace) parameterized to match the behavioural envelope of the
// paper's benchmarks; see DESIGN.md for the substitution rationale.
//
// # Reuse
//
// A Simulator runs once per Reset: Reset it, add the workloads again and
// Run, and the results are bit-identical to a freshly built simulator's
// while construction is skipped. The bound phase's worker goroutines live
// for one run, so a simulator holds no goroutine between runs and needs no
// Close; a simulator no longer needed is simply dropped.
package zsim

import (
	"context"
	"fmt"
	"io"
	"time"

	"zsim/internal/boundweave"
	"zsim/internal/config"
	"zsim/internal/noc"
	"zsim/internal/runctl"
	"zsim/internal/stats"
	"zsim/internal/telemetry"
	"zsim/internal/trace"
	"zsim/internal/virt"
)

// Config is the simulated-system description. It is an alias of the internal
// configuration type so callers can construct or load configurations
// directly.
type Config = config.System

// CoreModel selects the core timing model in a Config ("ooo" or "ipc1").
type CoreModel = config.CoreModel

// WorkloadParams are the behavioural parameters of a synthetic workload.
type WorkloadParams = trace.Params

// Metrics are the derived results of a run (IPC, MPKIs, simulation MIPS...).
type Metrics = stats.Metrics

// Probe is the live-telemetry publication point of a running simulation:
// phase, intervals, simulated cycles, per-phase wall time, worker-pool
// churn. Every Simulator owns one (see Simulator.Probe); readers take
// Snapshots at any time without perturbing the run.
type Probe = telemetry.Probe

// ProgressSnapshot is a point-in-time copy of a Probe's published counters.
type ProgressSnapshot = telemetry.Snapshot

// TraceSink collects bounded Chrome trace-event slices from a run (one bound
// and one weave slice per interval), exportable as Perfetto-loadable JSON via
// WriteJSON. Attach one with Simulator.SetTrace.
type TraceSink = telemetry.TraceSink

// NewTraceSink builds a trace sink holding at most capacity events (<= 0
// selects the default bound). Recording past capacity drops events and counts
// them, so a trace can never grow without bound.
func NewTraceSink(capacity int) *TraceSink { return telemetry.NewTraceSink(capacity) }

// StartHeartbeat starts a background goroutine that writes one progress line
// to w every period, fed from the probe's snapshots (phase, intervals, cycles,
// sim-MIPS). The returned stop function halts the goroutine and always emits
// one final line, so even a run shorter than period produces output. Backs the
// -progress flag of cmd/zsim and cmd/zsimexp.
func StartHeartbeat(w io.Writer, p *Probe, prefix string, period time.Duration) (stop func()) {
	return telemetry.StartHeartbeat(w, p, prefix, period)
}

// WestmereConfig returns the paper's Table 2 validation configuration: a
// 6-core Westmere-class chip.
func WestmereConfig() *Config { return config.WestmereValidation() }

// TiledConfig returns the paper's Table 3 tiled-chip configuration with the
// given number of 16-core tiles (4, 16 and 64 tiles give the 64, 256 and
// 1024-core chips of the evaluation). model is "ooo" or "ipc1".
func TiledConfig(tiles int, model string) *Config {
	return config.TiledChip(tiles, config.CoreModel(model))
}

// SmallConfig returns a small 4-core configuration suitable for quick
// experiments and examples.
func SmallConfig() *Config { return config.SmallTest() }

// LoadConfig reads a JSON configuration.
func LoadConfig(r io.Reader) (*Config, error) { return config.Load(r) }

// LoadConfigFile reads a JSON configuration from a file.
func LoadConfigFile(path string) (*Config, error) { return config.LoadFile(path) }

// FailureReason classifies why a run stopped abnormally. A clean completion
// (all threads finished, or MaxInstructions reached) has no failure reason.
type FailureReason = runctl.Reason

// The typed reasons a run can fail with. Every abnormal stop returns partial
// metrics alongside a *RunError carrying one of these.
const (
	// Cancelled: the caller's context was cancelled (or a service cancel
	// request arrived) and the run stopped at the next interval boundary.
	Cancelled = runctl.ReasonCancelled
	// DeadlineExceeded: the run exceeded Config.MaxWallTime and the watchdog
	// stopped it.
	DeadlineExceeded = runctl.ReasonDeadline
	// CycleLimit: simulated time reached Config.MaxCycles.
	CycleLimit = runctl.ReasonCycleLimit
	// Deadlocked: the workload deadlocked — no thread runnable and none
	// wakeable by the passage of simulated time.
	Deadlocked = runctl.ReasonDeadlocked
	// Panicked: a panic inside the simulation (worker or driver) was
	// recovered; the process survives and RunError.Stack has the fault site.
	Panicked = runctl.ReasonPanicked
)

// RunError is the structured failure report of an abnormal run: the typed
// reason, where the run was when it stopped (phase, interval, cycle), the
// recovered panic stack when Reason == Panicked, and the partial results.
// It is returned as the error of Run/RunContext; the same partial Result is
// also returned directly alongside it.
type RunError struct {
	// Reason is the typed failure classification.
	Reason FailureReason
	// Phase is the bound-weave phase that was executing ("bound" or
	// "weave"); "run" when the run stopped between phases or never started
	// an interval.
	Phase string
	// Interval and Cycle locate the stop point in simulated time.
	Interval uint64
	Cycle    uint64
	// Panic is the formatted panic value and Stack the panicking goroutine's
	// stack, both set only when Reason == Panicked.
	Panic string
	Stack []byte
	// Partial holds the metrics and statistics accumulated up to the stop
	// point; it is always non-nil and always internally consistent.
	Partial *Result
}

// Error implements error.
func (e *RunError) Error() string {
	msg := fmt.Sprintf("zsim: run %s (phase %s, interval %d, cycle %d)",
		e.Reason, e.Phase, e.Interval, e.Cycle)
	if e.Reason == Panicked {
		msg += ": " + e.Panic
	}
	return msg
}

// DefaultWorkloadParams returns a moderate compute-leaning workload parameter
// set that callers can adjust.
func DefaultWorkloadParams() WorkloadParams { return trace.DefaultParams() }

// NamedWorkloads returns the names of all registered workloads (the SPEC
// CPU2006, PARSEC, SPLASH-2, SPEC OMP and STREAM stand-ins used by the
// paper's evaluation).
func NamedWorkloads() []string { return trace.AllNames() }

// LookupWorkload returns the registered parameters for a named workload.
func LookupWorkload(name string) (WorkloadParams, bool) { return trace.Lookup(name) }

// Simulator is the public facade over the bound-weave engine: configure it,
// add one or more workloads (processes), then Run.
type Simulator struct {
	cfg   *Config
	shape uint64 // cfg.ShapeKey(), hashed once: Reset only swaps in same-shape configs
	sys   *boundweave.System
	sched *virt.Scheduler

	// programs holds the translated workloads the current run added, taken
	// from the process-wide translation cache. Reset drops them; the cache
	// keeps them for whichever simulator adds them next.
	programs map[programKey]program

	// bw is the bound-weave simulator, built by the first run and Reset by
	// every run after it.
	bw *boundweave.Simulator

	// probe is the simulator's always-on telemetry publication point (cheap:
	// atomic stores at interval boundaries).
	probe *telemetry.Probe

	runSetup
}

// runSetup is one run's inputs (the Set* options and the added workloads) and
// whether and how the run ended. New and Reset both start it from
// newRunSetup.
type runSetup struct {
	maxInstrs   uint64
	hostThreads int
	seed        uint64

	workloads int
	usedAddr  map[uint64]bool
	ran       bool

	// traceSink is the optional Chrome-trace sink.
	traceSink *telemetry.TraceSink
	// lastReason is how the previous run ended (Reset refuses to rewind
	// after a panic).
	lastReason runctl.Reason
}

// newRunSetup is the per-run state of a simulator no workload or option has
// been given yet.
func newRunSetup() runSetup { return runSetup{seed: 1} }

// assignAddrSpace places a new process in its own simulated address-space
// slice so multiprocess runs do not alias each other's code, lock words or
// data lines. Explicit AddrSpace values are respected; auto-assignment picks
// the smallest slice not already taken (the first process keeps the legacy
// layout 0).
func (s *Simulator) assignAddrSpace(params *WorkloadParams) {
	if s.usedAddr == nil {
		s.usedAddr = make(map[uint64]bool)
	}
	if params.AddrSpace == 0 && s.workloads > 0 {
		for next := uint64(1); ; next++ {
			if !s.usedAddr[next] {
				params.AddrSpace = next
				break
			}
		}
	}
	s.usedAddr[params.AddrSpace] = true
}

// New builds a simulator for the given configuration.
func New(cfg *Config) (*Simulator, error) {
	sys, err := boundweave.BuildSystem(cfg)
	if err != nil {
		return nil, err
	}
	return &Simulator{
		cfg:      cfg,
		shape:    cfg.ShapeKey(),
		sys:      sys,
		sched:    virt.NewScheduler(cfg.NumCores),
		programs: make(map[programKey]program),
		probe:    new(telemetry.Probe),
		runSetup: newRunSetup(),
	}, nil
}

// Probe returns the simulator's telemetry probe. Snapshot it at any time —
// including while RunContext is executing on another goroutine — for live
// progress (phase, intervals, cycles, sim-MIPS). The probe rewinds at the
// start of every run.
func (s *Simulator) Probe() *Probe { return s.probe }

// SetTrace attaches a Chrome-trace sink to subsequent runs (nil detaches).
// Call before Run; use sink.WriteJSON after the run to export. Tracing is
// observation only — results are bit-identical with tracing on or off.
func (s *Simulator) SetTrace(sink *TraceSink) { s.traceSink = sink }

// ArenaStats reports the simulator's current arena footprint (construction
// arena plus the arena of every workload it holds) without running it, for
// pool/memory telemetry.
func (s *Simulator) ArenaStats() (chunks int, bytes uint64) {
	chunks, bytes = s.sys.Root.Arena().Stats()
	for _, p := range s.programs {
		chunks, bytes = chunks+p.chunks, bytes+p.bytes
	}
	return chunks, bytes
}

// ConstructionArenaBytes reports the bytes of the simulator's own
// construction arena. Unlike ArenaStats it leaves out the translated
// programs, which the process-wide translation cache shares between
// simulators and TranslationCacheBytes counts once.
func (s *Simulator) ConstructionArenaBytes() uint64 {
	_, bytes := s.sys.Root.Arena().Stats()
	return bytes
}

// SetReusable does nothing: every simulator can be Reset, and none keeps a
// goroutine after its run returns. It remains because the benchmark's
// zsim.reset_ms kernel (bench/kernels.go) calls it.
func (s *Simulator) SetReusable(bool) {}

// ShapeKey returns the configuration's construction-shape hash: two
// simulators with equal shape keys are structurally interchangeable, and a
// Reset may swap in any same-shape configuration. See Config.ShapeKey.
func (s *Simulator) ShapeKey() uint64 { return s.shape }

// Close does nothing: a simulator holds no goroutine or other resource once
// its run returns, and the garbage collector reclaims a dropped one. It
// remains because the benchmark's zsim.reset_ms kernel (bench/kernels.go)
// passes it as its cleanup.
func (s *Simulator) Close() {}

// Reset rewinds a simulator to its just-built state so it can serve another
// run: all statistics, core/cache/predictor/contention state and the
// scheduler rewind; the construction arena and weave engine stay warm, and
// the process-wide translation cache keeps the translated workloads. cfg supplies the next run's configuration; it must have the same
// ShapeKey as the simulator's (only run-variable fields — name, seeds, limits
// — may differ), and nil keeps the current one. Workloads and options are
// cleared: re-add workloads and re-apply Set* options before the next run.
//
// Reset fails (leaving the simulator unusable for further runs) when the
// previous run panicked: an aborted engine cannot be safely rewound, so the
// caller must drop this simulator and build a fresh one.
func (s *Simulator) Reset(cfg *Config) error {
	if s.lastReason == Panicked {
		return fmt.Errorf("zsim: cannot Reset after a panicked run; build a fresh simulator")
	}
	if cfg == nil {
		cfg = s.cfg
	} else {
		if err := cfg.Validate(); err != nil {
			return err
		}
		if key := cfg.ShapeKey(); key != s.shape {
			return fmt.Errorf("zsim: Reset config shape mismatch (got %#x, simulator built for %#x)", key, s.shape)
		}
	}
	s.cfg = cfg
	s.sys.Cfg = cfg
	s.sched.Reset()
	clear(s.programs)
	s.runSetup = newRunSetup()
	s.probe.Reset() // the next run's BeginRun rewinds it too; clear eagerly
	return nil
}

// SetMaxInstructions bounds the run to approximately n simulated instructions
// (0 = run every workload to completion).
func (s *Simulator) SetMaxInstructions(n uint64) { s.maxInstrs = n }

// SetHostThreads caps the number of host worker threads used by the bound
// phase (0 = all host CPUs).
func (s *Simulator) SetHostThreads(n int) { s.hostThreads = n }

// SetSeed sets the seed used for the interval barrier's wake-up shuffling.
func (s *Simulator) SetSeed(seed uint64) { s.seed = seed }

// AddWorkload adds a process running the given synthetic workload with the
// given number of software threads (which may exceed the number of simulated
// cores; the round-robin scheduler time-multiplexes them). It returns the
// process ID.
func (s *Simulator) AddWorkload(name string, params WorkloadParams, threads int) int {
	return s.AddPinnedWorkload(name, params, threads, nil)
}

// AddNamedWorkload adds a process running one of the registered named
// workloads. It returns an error for unknown names.
func (s *Simulator) AddNamedWorkload(name string, threads int) (int, error) {
	params, ok := trace.Lookup(name)
	if !ok {
		return 0, fmt.Errorf("zsim: unknown workload %q (see NamedWorkloads)", name)
	}
	return s.AddWorkload(name, params, threads), nil
}

// AddPinnedWorkload adds a workload whose threads are restricted to the given
// cores (the "groups of cores per application" usage model the paper
// describes for multiprogrammed runs). nil cores leaves them unrestricted.
func (s *Simulator) AddPinnedWorkload(name string, params WorkloadParams, threads int, cores []int) int {
	s.assignAddrSpace(&params)
	key := programKey{name, params, threads}
	prog := translations.get(key)
	s.programs[key] = prog
	w := prog.w
	p := &virt.Process{ID: s.workloads, Name: name, Affinity: cores}
	for i := 0; i < w.Threads; i++ {
		p.Threads = append(p.Threads, &virt.Thread{Stream: w.NewThread(i)})
	}
	s.sched.AddProcess(p)
	s.workloads++
	return p.ID
}

// NOCStats summarizes the weave-phase NoC contention subsystem's activity
// during a run (all zero unless Config.NOCContention is enabled).
type NOCStats = noc.Stats

// SchedStats summarizes the virtualization layer's scheduling activity
// during a run. Live and Runnable are the thread gauges at the end of it:
// both are 0 after a run that completed.
type SchedStats = virt.SchedCounts

// Result is the outcome of a simulation run.
type Result struct {
	// Metrics holds the aggregate performance metrics of the run.
	Metrics *Metrics
	// Intervals is the number of bound-weave intervals executed.
	Intervals uint64
	// BoundRounds is the number of bound-phase rounds executed; rounds beyond
	// one per interval are mid-interval rescheduling points.
	BoundRounds uint64
	// WeaveEvents is the number of weave-phase events simulated, one per
	// contended hop: an L3 bank or memory controller access, or a NoC router
	// traversal (0 when the configuration disables contention).
	WeaveEvents uint64
	// Sched reports the scheduling activity of the virtualization layer.
	Sched SchedStats
	// NOC reports the NoC contention subsystem's activity (zero when
	// Config.NOCContention is off).
	NOC NOCStats
	// ArenaChunks and ArenaBytes report the simulator's arena footprint
	// (construction arena plus the arenas of the run's workloads). A warm
	// simulator counts only the workloads of its current run, so they can
	// fall; across runs of the same workloads they stay flat, which
	// demonstrates allocation-free reuse.
	ArenaChunks int
	ArenaBytes  uint64
}

// Summary returns a one-paragraph human-readable summary of the run.
func (r *Result) Summary() string {
	m := r.Metrics
	return fmt.Sprintf(
		"simulated %d instructions on %d cores in %d cycles (IPC %.2f) — "+
			"L1D %.2f MPKI, L2 %.2f MPKI, L3 %.2f MPKI — "+
			"host time %v, %.1f MIPS, %d intervals, %d weave events",
		m.Instrs, m.Cores, m.Cycles, m.IPC,
		m.L1DMPKI, m.L2MPKI, m.L3MPKI,
		time.Duration(m.HostNanos).Round(time.Millisecond), m.SimMIPS, r.Intervals, r.WeaveEvents)
}

// runOptions assembles the bound-weave options for one run.
func (s *Simulator) runOptions(ctl *runctl.Token) boundweave.Options {
	return boundweave.Options{
		MaxInstrs:   s.maxInstrs,
		HostThreads: s.hostThreads,
		Seed:        s.seed,
		Ctl:         ctl,
		MaxWallTime: s.cfg.MaxWallTime,
		MaxCycles:   s.cfg.MaxCycles,
		Probe:       s.probe,
		Trace:       s.traceSink,
	}
}

// Run executes the simulation and returns its results. A simulator runs
// once per Reset: Reset it, or build a new one, for another run. It is
// RunContext with a background context: only Config.MaxWallTime /
// Config.MaxCycles (and a workload deadlock) can stop it early.
func (s *Simulator) Run() (*Result, error) {
	return s.RunContext(context.Background())
}

// RunContext executes the simulation under the given context and returns its
// results. The run stops cooperatively at the next interval boundary when
// the context is cancelled, when Config.MaxWallTime expires (a wall-clock
// watchdog), when simulated time reaches Config.MaxCycles, or when the
// workload deadlocks; panics inside simulation workers are recovered rather
// than crashing the process. Any abnormal stop returns the partial Result
// (never nil, always internally consistent) together with a *RunError
// carrying the typed reason — callers that only care about best-effort
// metrics can use the Result and log the error.
func (s *Simulator) RunContext(ctx context.Context) (*Result, error) {
	if s.ran {
		return nil, fmt.Errorf("zsim: simulator already ran; create a new one")
	}
	if s.workloads == 0 {
		return nil, fmt.Errorf("zsim: no workloads added")
	}
	s.ran = true
	ctl := new(runctl.Token)
	opts := s.runOptions(ctl)
	if s.bw == nil {
		s.bw = boundweave.NewSimulator(s.sys, s.sched, opts)
	} else if err := s.bw.Reset(opts); err != nil {
		return nil, err
	}
	sim := s.bw
	if ctx != nil && ctx.Done() != nil {
		stop := context.AfterFunc(ctx, func() { ctl.Cancel(runctl.ReasonCancelled) })
		defer stop()
	}

	start := time.Now()
	facadePanic := runGuarded(sim)
	elapsed := time.Since(start)

	res := s.collectResult(sim, elapsed)
	reason, panicErr, phase := sim.Reason, sim.PanicErr, sim.FailPhase
	if facadePanic != nil {
		// A fault that escaped the simulator's own containment (it recovers
		// everything raised inside Run, so this is the facade's last line).
		reason, panicErr, phase = Panicked, facadePanic, "run"
	}
	s.lastReason = reason
	if reason == runctl.ReasonNone {
		return res, nil
	}
	if phase == "" {
		phase = "run"
	}
	runErr := &RunError{
		Reason:   reason,
		Phase:    phase,
		Interval: sim.Intervals,
		Cycle:    sim.GlobalCycle(),
		Partial:  res,
	}
	if panicErr != nil {
		runErr.Panic = fmt.Sprintf("%v", panicErr.Value)
		runErr.Stack = panicErr.Stack
	}
	return res, runErr
}

// runGuarded runs the simulation with a facade-level panic guard: anything
// that escapes the simulator's own recovery is captured and reported instead
// of unwinding into the caller.
func runGuarded(sim *boundweave.Simulator) (pe *runctl.PanicError) {
	defer func() {
		if r := recover(); r != nil {
			pe = runctl.NewPanicError(r, -1)
		}
	}()
	sim.Run()
	return nil
}

// collectResult assembles the public Result from the simulated system and the
// finished (or failed) simulator.
func (s *Simulator) collectResult(sim *boundweave.Simulator, elapsed time.Duration) *Result {
	m := s.sys.Metrics()
	m.HostNanos = elapsed.Nanoseconds()
	m.Finalize()
	var nocStats NOCStats
	if s.sys.Fabric != nil {
		nocStats = s.sys.Fabric.TotalStats()
	}
	chunks, bytes := s.ArenaStats()
	return &Result{
		Metrics:     m,
		Intervals:   sim.Intervals,
		BoundRounds: sim.BoundRounds,
		WeaveEvents: sim.WeaveEvents,
		ArenaChunks: chunks,
		ArenaBytes:  bytes,
		Sched:       s.sched.Counts(),
		NOC:         nocStats,
	}
}

// WriteStats dumps the full hierarchical statistics tree of the simulated
// system (per-core, per-cache, per-controller counters) in text form. Call it
// after Run.
func (s *Simulator) WriteStats(w io.Writer) error {
	return s.sys.Root.WriteText(w)
}

// WriteStatsCSV dumps the statistics tree as CSV rows.
func (s *Simulator) WriteStatsCSV(w io.Writer) error {
	return s.sys.Root.WriteCSV(w)
}
