// Package telemetry is the simulator's observability layer: a zero-allocation
// per-simulator probe whose counters are published at interval boundaries, a
// hand-rolled Prometheus text-exposition writer (no dependencies), a bounded
// Chrome-trace-event sink of bound/weave phase slices, and a heartbeat
// printer for CLI progress lines.
//
// The cardinal rule of the package is that observation never perturbs the
// simulation: probes and trace sinks only record wall-clock time and counter
// values that are pure functions of work already done, so fixed-seed results
// are bit-identical with telemetry enabled or disabled, and every update on
// the simulation side is a handful of atomic stores at an interval boundary —
// no locks, no allocation, no channel traffic on the hot path.
package telemetry

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// The phases a running simulation can be observed in.
const (
	PhaseIdle uint32 = iota
	PhaseBound
	PhaseWeave
	PhaseDone
)

// PhaseName returns the wire name of a phase code.
func PhaseName(ph uint32) string {
	switch ph {
	case PhaseBound:
		return "bound"
	case PhaseWeave:
		return "weave"
	case PhaseDone:
		return "done"
	default:
		return "idle"
	}
}

// Sample is one interval boundary's worth of counter values, produced by the
// bound-weave driver and stored into a Probe. All values are absolute (the
// run's running totals), not deltas, so a missed publication can never skew a
// reader. It is passed by value: publishing allocates nothing.
type Sample struct {
	Intervals   uint64
	BoundRounds uint64
	Cycles      uint64
	Instrs      uint64
	WeaveEvents uint64

	// Per-phase wall time spent in the bound and weave phases (host ns), and
	// the part of the weave time spent building event chains (root pushes
	// included).
	BoundNanos int64
	WeaveNanos int64
	ChainNanos int64

	// Worker-pool churn over the run: bound-phase launches on the pool and
	// the wakeups of parked workers they needed (a worker still spinning
	// from the previous round needs none), plus the worker count of the most
	// recent bound round (occupancy gauge).
	PoolRuns    uint64
	PoolWakes   uint64
	PoolWorkers int

	// Scheduler gauges from the virtualization layer.
	LiveThreads     int
	RunnableThreads int
}

// Probe is the per-simulator telemetry publication point. The simulation side
// stores a Sample into it at every interval boundary (atomic stores only);
// readers — HTTP handlers, heartbeat printers — take a Snapshot at any time
// without touching the simulation. Every field is an individual atomic, so a
// snapshot is a consistent-enough view for monitoring (each counter is
// internally exact and monotone within a run) while staying race-free and
// allocation-free in both directions.
//
// A Probe observes one run at a time: BeginRun rewinds it, so a warm-reused
// simulator starts its next job from zero. The zero value is ready to use.
type Probe struct {
	phase      atomic.Uint32
	startNanos atomic.Int64
	maxCycles  atomic.Uint64

	intervals   atomic.Uint64
	boundRounds atomic.Uint64
	cycles      atomic.Uint64
	instrs      atomic.Uint64
	weaveEvents atomic.Uint64

	boundNanos atomic.Int64
	weaveNanos atomic.Int64
	chainNanos atomic.Int64

	poolRuns    atomic.Uint64
	poolWakes   atomic.Uint64
	poolWorkers atomic.Int64

	liveThreads     atomic.Int64
	runnableThreads atomic.Int64
}

// BeginRun rewinds the probe for a new run and records its start time and
// cycle budget (0 = unlimited). Called by the bound-weave driver when Run
// starts, so a reused simulator's probe never leaks the previous job's
// numbers into the next one.
func (p *Probe) BeginRun(maxCycles uint64) {
	if p == nil {
		return
	}
	p.Reset()
	p.startNanos.Store(time.Now().UnixNano())
	p.maxCycles.Store(maxCycles)
	p.phase.Store(PhaseBound)
}

// Reset zeroes every counter and gauge. Nil-safe.
func (p *Probe) Reset() {
	if p == nil {
		return
	}
	p.phase.Store(PhaseIdle)
	p.startNanos.Store(0)
	p.maxCycles.Store(0)
	p.intervals.Store(0)
	p.boundRounds.Store(0)
	p.cycles.Store(0)
	p.instrs.Store(0)
	p.weaveEvents.Store(0)
	p.boundNanos.Store(0)
	p.weaveNanos.Store(0)
	p.chainNanos.Store(0)
	p.poolRuns.Store(0)
	p.poolWakes.Store(0)
	p.poolWorkers.Store(0)
	p.liveThreads.Store(0)
	p.runnableThreads.Store(0)
}

// SetPhase publishes the currently executing phase. Nil-safe, one atomic
// store.
func (p *Probe) SetPhase(ph uint32) {
	if p == nil {
		return
	}
	p.phase.Store(ph)
}

// Publish stores one interval boundary's sample. Nil-safe; performs only
// atomic stores, so the steady-state interval loop stays allocation-free with
// a probe attached.
func (p *Probe) Publish(s Sample) {
	if p == nil {
		return
	}
	p.intervals.Store(s.Intervals)
	p.boundRounds.Store(s.BoundRounds)
	p.cycles.Store(s.Cycles)
	p.instrs.Store(s.Instrs)
	p.weaveEvents.Store(s.WeaveEvents)
	p.boundNanos.Store(s.BoundNanos)
	p.weaveNanos.Store(s.WeaveNanos)
	p.chainNanos.Store(s.ChainNanos)
	p.poolRuns.Store(s.PoolRuns)
	p.poolWakes.Store(s.PoolWakes)
	p.poolWorkers.Store(int64(s.PoolWorkers))
	p.liveThreads.Store(int64(s.LiveThreads))
	p.runnableThreads.Store(int64(s.RunnableThreads))
}

// Snapshot is a point-in-time copy of a probe's published state, safe to hold
// and serialize without further synchronization.
type Snapshot struct {
	Phase      string `json:"phase"`
	StartNanos int64  `json:"-"`
	MaxCycles  uint64 `json:"-"`

	Intervals   uint64 `json:"intervals"`
	BoundRounds uint64 `json:"boundRounds"`
	Cycles      uint64 `json:"cycles"`
	Instrs      uint64 `json:"instrs"`
	WeaveEvents uint64 `json:"weaveEvents"`

	BoundNanos int64 `json:"boundNanos"`
	WeaveNanos int64 `json:"weaveNanos"`
	ChainNanos int64 `json:"chainNanos"`

	PoolRuns    uint64 `json:"poolRuns,omitempty"`
	PoolWakes   uint64 `json:"poolWakes,omitempty"`
	PoolWorkers int    `json:"poolWorkers,omitempty"`

	LiveThreads     int `json:"liveThreads"`
	RunnableThreads int `json:"runnableThreads"`

	// Always zero. bench/ (frozen until a later benchmark PR) still reads
	// these diagnostics of the retired parallel weave executor; nothing else
	// does.
	HorizonParks  uint64 `json:"-"`
	DomainWakes   uint64 `json:"-"`
	StallNanos    int64  `json:"-"`
	CrossHandoffs uint64 `json:"-"`
}

// Snapshot copies the probe's current state. Nil-safe (a nil probe reads as
// an idle, all-zero snapshot).
func (p *Probe) Snapshot() Snapshot {
	if p == nil {
		return Snapshot{Phase: PhaseName(PhaseIdle)}
	}
	return Snapshot{
		Phase:           PhaseName(p.phase.Load()),
		StartNanos:      p.startNanos.Load(),
		MaxCycles:       p.maxCycles.Load(),
		Intervals:       p.intervals.Load(),
		BoundRounds:     p.boundRounds.Load(),
		Cycles:          p.cycles.Load(),
		Instrs:          p.instrs.Load(),
		WeaveEvents:     p.weaveEvents.Load(),
		BoundNanos:      p.boundNanos.Load(),
		WeaveNanos:      p.weaveNanos.Load(),
		ChainNanos:      p.chainNanos.Load(),
		PoolRuns:        p.poolRuns.Load(),
		PoolWakes:       p.poolWakes.Load(),
		PoolWorkers:     int(p.poolWorkers.Load()),
		LiveThreads:     int(p.liveThreads.Load()),
		RunnableThreads: int(p.runnableThreads.Load()),
	}
}

// SimMIPS returns the run's simulation rate (simulated MIPS) as of nowNanos.
func (s Snapshot) SimMIPS(nowNanos int64) float64 {
	if s.StartNanos == 0 || nowNanos <= s.StartNanos {
		return 0
	}
	return float64(s.Instrs) / (float64(nowNanos-s.StartNanos) / 1e9) / 1e6
}

// PctMaxCycles returns simulated progress toward the run's cycle budget in
// percent (0 when no budget is set).
func (s Snapshot) PctMaxCycles() float64 {
	if s.MaxCycles == 0 {
		return 0
	}
	return 100 * float64(s.Cycles) / float64(s.MaxCycles)
}

// Totals accumulates snapshots across runs/jobs: the service layer adds each
// finished job's final snapshot here and sums live jobs' snapshots on top at
// scrape time, so the exported engine counters are monotone across the
// daemon's lifetime.
type Totals struct {
	Intervals, BoundRounds, Cycles, Instrs, WeaveEvents uint64
	BoundNanos, WeaveNanos, ChainNanos                  int64
	PoolRuns, PoolWakes                                 uint64
}

// Add accumulates one snapshot.
func (t *Totals) Add(s Snapshot) {
	t.Intervals += s.Intervals
	t.BoundRounds += s.BoundRounds
	t.Cycles += s.Cycles
	t.Instrs += s.Instrs
	t.WeaveEvents += s.WeaveEvents
	t.BoundNanos += s.BoundNanos
	t.WeaveNanos += s.WeaveNanos
	t.ChainNanos += s.ChainNanos
	t.PoolRuns += s.PoolRuns
	t.PoolWakes += s.PoolWakes
}

// StartHeartbeat spawns a goroutine that prints one progress line to w every
// period, reading the probe's published snapshots, and returns a stop
// function. Stop is idempotent; the first call halts the ticker and prints a
// final line marked "done", so even a run that finishes inside the first
// period emits at least one heartbeat. Lines look like:
//
//	<prefix>progress: phase=bound intervals=42 cycles=430080 instrs=1234567 sim-MIPS=12.3 threads=6/8
//
// with "pct-max-cycles=NN.N%" appended when the run has a cycle budget.
func StartHeartbeat(w io.Writer, p *Probe, prefix string, period time.Duration) (stop func()) {
	if period <= 0 {
		period = time.Second
	}
	ticker := time.NewTicker(period)
	quit := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-ticker.C:
				writeHeartbeat(w, p.Snapshot(), prefix, false)
			case <-quit:
				return
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() {
			ticker.Stop()
			close(quit)
			<-done
			writeHeartbeat(w, p.Snapshot(), prefix, true)
		})
	}
}

// writeHeartbeat formats one progress line as a single Write.
func writeHeartbeat(w io.Writer, s Snapshot, prefix string, final bool) {
	line := fmt.Sprintf("%sprogress: phase=%s intervals=%d cycles=%d instrs=%d sim-MIPS=%.1f threads=%d/%d",
		prefix, s.Phase, s.Intervals, s.Cycles, s.Instrs,
		s.SimMIPS(time.Now().UnixNano()), s.RunnableThreads, s.LiveThreads)
	if s.MaxCycles > 0 {
		line += fmt.Sprintf(" pct-max-cycles=%.1f%%", s.PctMaxCycles())
	}
	if final {
		line += " (done)"
	}
	fmt.Fprintln(w, line)
}
