package main

import (
	"fmt"
	"runtime"
	"time"

	"zsim/internal/arena"
	"zsim/internal/boundweave"
	"zsim/internal/cache"
	"zsim/internal/noc"
	"zsim/internal/runctl"
	"zsim/internal/stats"
	"zsim/internal/telemetry"
	"zsim/internal/trace"
	"zsim/internal/virt"
)

// signature is the simulated outcome of one rep: every field is simulated
// (not host) state, so two commits compare exactly on workloads inside the
// determinism envelope.
type signature struct {
	Instrs          uint64 `json:"instrs"`
	Cycles          uint64 `json:"cycles"`
	L1DMisses       uint64 `json:"l1dMisses"`
	L2Misses        uint64 `json:"l2Misses"`
	L3Misses        uint64 `json:"l3Misses"`
	WeaveEvents     uint64 `json:"weaveEvents"`
	NoCTraversals   uint64 `json:"nocTraversals"`
	ContextSwitches uint64 `json:"contextSwitches"`
}

// simRep is everything one rep measured. Times are host seconds.
type simRep struct {
	sig signature

	buildSystemS   float64
	workloadBuildS float64
	newSimulatorS  float64
	runS           float64
	allocMB        float64 // TotalAlloc delta over setup+run
	liveHeapMB     float64 // HeapAlloc after setup and a forced GC

	// Read after the run from the simulator's own counters; the traced pass
	// reports them, the untraced pass only uses them for the signature.
	snap        telemetry.Snapshot
	sched       virt.SchedCounts
	noc         noc.Stats
	metrics     *stats.Metrics
	arenaChunks int
	arenaBytes  uint64
	// Accesses by the level that served them (hits at L1I+L1D, L2, L3;
	// L3 misses go to memory), for the cost-model reconciliation.
	l1Hits, l2Hits, l3Hits, memAccesses uint64
}

// newProgram builds a process's static code from its own program seed and
// then points its threads' dynamic streams at the run's stream seed (NewThread
// reads the seed from Workload.Params when it is called).
func newProgram(a *arena.Arena, p proc) *trace.Workload {
	w := trace.NewIn(a, p.name, p.params, p.threads)
	w.Params.Seed = p.streamSeed
	return w
}

func (r *simRep) setupS() float64 { return r.buildSystemS + r.workloadBuildS + r.newSimulatorS }

// runSimRep builds the workload's chip and processes from scratch, runs them
// to completion and returns what it measured. Each layer is timed from
// outside, around its public constructor or Run call. With traced set, a
// telemetry Probe and a TraceSink are attached through the run options; the
// phase times and engine counters of the per-layer table come from them.
func runSimRep(w *simWorkload, seed uint64, hostThreads int, traced bool) (*simRep, error) {
	// Every rep starts from a collected heap. Otherwise whether a collection
	// lands inside the 1-15 ms of setup depends on the garbage the previous
	// rep's run left, and setup_s flips between two values from one run of the
	// benchmark to the next (ten-seed spread 17% against 5% on hotspot64).
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	allocBefore := ms.TotalAlloc

	rep := &simRep{}
	t0 := time.Now()
	sys, err := boundweave.BuildSystem(w.cfg())
	if err != nil {
		return nil, fmt.Errorf("%s: build system: %w", w.name, err)
	}
	t1 := time.Now()
	sched := virt.NewScheduler(sys.Cfg.NumCores)
	for i, p := range w.procs(seed) {
		tw := newProgram(sys.Root.Arena(), p)
		vp := &virt.Process{ID: i, Name: p.name, Affinity: p.pin}
		for t := 0; t < p.threads; t++ {
			vp.Threads = append(vp.Threads, &virt.Thread{Stream: tw.NewThread(t)})
		}
		sched.AddProcess(vp)
	}
	t2 := time.Now()
	// The wall-time limit only ends a rep that hangs (it then counts as
	// failed); a healthy rep takes well under a second.
	opts := boundweave.Options{HostThreads: hostThreads, Seed: seed, MaxWallTime: 30 * time.Second}
	if traced {
		// The sink is attached only so that recording spans is on the clock
		// (trace_overhead_frac); the spans are dropped with the rep.
		opts.Probe = new(telemetry.Probe)
		opts.Trace = telemetry.NewTraceSink(0)
	}
	sim := boundweave.NewSimulator(sys, sched, opts)
	t3 := time.Now()
	rep.buildSystemS = t1.Sub(t0).Seconds()
	rep.workloadBuildS = t2.Sub(t1).Seconds()
	rep.newSimulatorS = t3.Sub(t2).Seconds()

	runtime.GC()
	runtime.ReadMemStats(&ms)
	rep.liveHeapMB = float64(ms.HeapAlloc) / (1 << 20)

	start := time.Now()
	sim.Run()
	rep.runS = time.Since(start).Seconds()

	runtime.ReadMemStats(&ms)
	rep.allocMB = float64(ms.TotalAlloc-allocBefore) / (1 << 20)

	if sim.Reason != runctl.ReasonNone {
		return nil, fmt.Errorf("%s: run %s at interval %d (cycle %d)", w.name, sim.Reason, sim.Intervals, sim.GlobalCycle())
	}
	rep.snap = opts.Probe.Snapshot()
	rep.sched = sched.Counts()
	if sys.Fabric != nil {
		rep.noc = sys.Fabric.TotalStats()
	}
	rep.metrics = sys.Metrics()
	rep.arenaChunks, rep.arenaBytes = sys.Root.Arena().Stats()
	for _, l1s := range [][]*cache.Cache{sys.L1I, sys.L1D} {
		for _, c := range l1s {
			rep.l1Hits += c.Hits.Get()
		}
	}
	for _, c := range sys.L2 {
		rep.l2Hits += c.Hits.Get()
	}
	for _, c := range sys.Banks {
		rep.l3Hits += c.Hits.Get()
		rep.memAccesses += c.Misses.Get()
	}
	rep.sig = signature{
		Instrs:          rep.metrics.Instrs,
		Cycles:          rep.metrics.Cycles,
		L1DMisses:       rep.metrics.L1DMisses,
		L2Misses:        rep.metrics.L2Misses,
		L3Misses:        rep.metrics.L3Misses,
		WeaveEvents:     sim.WeaveEvents,
		NoCTraversals:   rep.noc.Traversals,
		ContextSwitches: rep.sched.ContextSwitches,
	}
	return rep, nil
}
