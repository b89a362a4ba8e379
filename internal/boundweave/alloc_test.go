package boundweave

// Allocation-regression tests for the weave hot path. The tentpole property
// of the pooled pipeline is that a steady-state interval — recording access
// traces, building the event graph, running the engine, and recycling the
// buffers — performs O(1) heap allocations once the slabs, queues and
// freelists have warmed up.

import (
	"runtime"
	"testing"

	"zsim/internal/cache"
	"zsim/internal/config"
	"zsim/internal/telemetry"
	"zsim/internal/trace"
	"zsim/internal/virt"
)

// telemetryOpts attaches a live probe and a deliberately tiny trace sink to
// the alloc-gate simulators: publishing samples is atomic stores only, and a
// sink past capacity exercises the drop path — so the steady-state allocation
// contract must hold with full telemetry enabled, not just without it.
func telemetryOpts(o Options) Options {
	o.Probe = new(telemetry.Probe)
	o.Trace = telemetry.NewTraceSink(256)
	return o
}

// newContentionSim builds a small contended system whose weave path can be
// driven directly.
func newContentionSim(t *testing.T) *Simulator {
	t.Helper()
	cfg := config.SmallTest()
	cfg.NumCores = 4
	cfg.Contention = true
	sys, err := BuildSystem(cfg)
	if err != nil {
		t.Fatalf("BuildSystem: %v", err)
	}
	sched := virt.NewScheduler(cfg.NumCores)
	p := trace.DefaultParams()
	p.BlocksPerThread = 10
	sched.AddWorkload(trace.New("alloc", p, cfg.NumCores))
	return NewSimulator(sys, sched, telemetryOpts(Options{HostThreads: 1, Seed: 1}))
}

// fillRecorders injects one synthetic shared-touching trace per core, using
// the given recycled buffers, and returns the replacement buffers.
func fillRecorders(sim *Simulator, bufs [][]cache.Hop) {
	bankComp := sim.Sys.BankComp[0]
	memComp := sim.Sys.MemComp[0]
	for coreID, rec := range sim.recorders {
		buf := append(bufs[coreID][:0],
			cache.Hop{Comp: bankComp, Kind: cache.HopMiss, Line: uint64(64 + coreID), Cycle: 100, Latency: 10},
			cache.Hop{Comp: memComp, Kind: cache.HopMem, Line: uint64(64 + coreID), Cycle: 120, Latency: 120},
		)
		bufs[coreID] = rec.RecordAccess(coreID, 100, coreID%2 == 0, buf)
	}
}

func TestRunWeaveSteadyStateAllocs(t *testing.T) {
	sim := newContentionSim(t)
	defer sim.Close()
	bufs := make([][]cache.Hop, len(sim.recorders))
	iteration := func() {
		fillRecorders(sim, bufs)
		sim.runWeave()
	}
	// Warm up slabs, heaps, freelists and the engine's scratch buffers.
	for i := 0; i < 3; i++ {
		iteration()
	}
	allocs := testing.AllocsPerRun(20, iteration)
	if allocs > 2 {
		t.Fatalf("steady-state runWeave should be allocation-free, got %v allocs/run", allocs)
	}
}

func TestRecorderSteadyStateAllocs(t *testing.T) {
	shared := map[int]bool{7: true}
	rec := NewRecorder(0, shared)
	var buf []cache.Hop
	iteration := func() {
		for i := 0; i < 8; i++ {
			b := append(buf[:0],
				cache.Hop{Comp: 1, Kind: cache.HopMiss, Cycle: 10, Latency: 4},
				cache.Hop{Comp: 7, Kind: cache.HopHit, Cycle: 20, Latency: 14},
			)
			buf = rec.RecordAccess(0, 10, false, b)
		}
		rec.Reset()
	}
	for i := 0; i < 3; i++ {
		iteration()
	}
	allocs := testing.AllocsPerRun(50, iteration)
	if allocs != 0 {
		t.Fatalf("steady-state record/reset cycle should not allocate, got %v allocs/run", allocs)
	}
}

// TestRecorderRecyclesBuffers checks the ownership contract: buffers handed
// to RecordAccess come back through the freelist after Reset, so a core and
// its recorder cycle a bounded set of buffers forever.
func TestRecorderRecyclesBuffers(t *testing.T) {
	shared := map[int]bool{3: true}
	rec := NewRecorder(0, shared)
	first := make([]cache.Hop, 0, 8)
	first = append(first, cache.Hop{Comp: 3})
	if got := rec.RecordAccess(0, 1, false, first); got != nil {
		t.Fatalf("empty freelist should hand back nil, got %v", got)
	}
	rec.Reset()
	second := append(make([]cache.Hop, 0, 8), cache.Hop{Comp: 3})
	got := rec.RecordAccess(0, 2, false, second)
	if got == nil || cap(got) != 8 || len(got) != 0 {
		t.Fatalf("recorder should recycle the first buffer (cap 8, len 0), got len=%d cap=%d", len(got), cap(got))
	}
	// A private-only trace bounces straight back to the caller.
	privBuf := append(got, cache.Hop{Comp: 1})
	back := rec.RecordAccess(0, 3, false, privBuf)
	if len(back) != 0 || cap(back) != cap(privBuf) {
		t.Fatalf("dropped trace should return the caller's own buffer truncated")
	}
}

// TestRunWeaveSteadyStateAllocsNOC is TestRunWeaveSteadyStateAllocs with the
// NoC contention subsystem enabled: traces now carry network hops that the
// translation loop expands into per-router events along the mesh route, and
// the whole pipeline — route walk, router events, port scheduling — must
// still be allocation-free once slabs and queues have warmed up.
func TestRunWeaveSteadyStateAllocsNOC(t *testing.T) {
	cfg := config.SmallTest()
	cfg.NumCores = 4
	cfg.Contention = true
	cfg.Network = config.NetMesh // 2x2 mesh
	cfg.NOCContention = true
	cfg.NOCLinkBytes = 4
	sys, err := BuildSystem(cfg)
	if err != nil {
		t.Fatalf("BuildSystem: %v", err)
	}
	sched := virt.NewScheduler(cfg.NumCores)
	p := trace.DefaultParams()
	p.BlocksPerThread = 10
	sched.AddWorkload(trace.New("alloc-noc", p, cfg.NumCores))
	sim := NewSimulator(sys, sched, telemetryOpts(Options{HostThreads: 1, Seed: 1}))
	defer sim.Close()

	bankComp := sim.Sys.BankComp[0]
	memComp := sim.Sys.MemComp[0]
	bufs := make([][]cache.Hop, len(sim.recorders))
	iteration := func() {
		for coreID, rec := range sim.recorders {
			// A full path: corner-to-corner mesh route, bank access, the
			// bank's memory-egress link, then DRAM.
			buf := append(bufs[coreID][:0],
				cache.Hop{Comp: -1, Kind: cache.HopNet, Src: 0, Dst: 3, Line: uint64(64 + coreID), Cycle: 100, Latency: 5},
				cache.Hop{Comp: bankComp, Kind: cache.HopMiss, Line: uint64(64 + coreID), Cycle: 105, Latency: 10},
				cache.Hop{Comp: -1, Kind: cache.HopNetMem, Src: 3, Dst: 0, Line: uint64(64 + coreID), Cycle: 115, Latency: 1},
				cache.Hop{Comp: memComp, Kind: cache.HopMem, Line: uint64(64 + coreID), Cycle: 116, Latency: 120},
			)
			bufs[coreID] = rec.RecordAccess(coreID, 100, coreID%2 == 0, buf)
		}
		sim.runWeave()
	}
	for i := 0; i < 3; i++ {
		iteration()
	}
	allocs := testing.AllocsPerRun(20, iteration)
	if allocs > 2 {
		t.Fatalf("steady-state runWeave with NoC contention should be allocation-free, got %v allocs/run", allocs)
	}
	if sys.Fabric.TotalStats().Traversals == 0 {
		t.Fatalf("NoC alloc test did not schedule any router traversals")
	}
}

// TestWeaveAllocThousandCores bounds the bytes a short contended run of the
// 1,024-core chip allocates. A core uses only ~13 events per interval, so the
// events must come from one simulator-wide slab. With one slab per core, each
// carving a 512-event chunk (~80 KB) on first use, this run allocated
// 104.7 MB; with the shared slab it allocates 21.0 MB. The budget is half the
// per-core-slab figure.
func TestWeaveAllocThousandCores(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the 1,024-core chip")
	}
	cfg := config.TiledChip(64, config.CoreIPC1)
	cfg.Contention = true
	sys, err := BuildSystem(cfg)
	if err != nil {
		t.Fatalf("BuildSystem: %v", err)
	}
	p := trace.MustLookup("ocean")
	p.BlocksPerThread = 20
	p.ScaleWork = false
	p.SerialFraction = 0
	sched := virt.NewScheduler(cfg.NumCores)
	sched.AddWorkload(trace.NewIn(sys.Root.Arena(), "ocean", p, cfg.NumCores))
	sim := NewSimulator(sys, sched, Options{HostThreads: 1, Seed: 1})
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc
	sim.Run()
	runtime.ReadMemStats(&ms)
	mb := float64(ms.TotalAlloc-before) / (1 << 20)
	t.Logf("Run allocated %.1f MB over %d weave events", mb, sim.WeaveEvents)
	if sim.WeaveEvents == 0 {
		t.Fatal("the run wove no events")
	}
	if mb > 104.7/2 {
		t.Fatalf("Run allocated %.1f MB; budget is %.1f MB", mb, 104.7/2)
	}
}

// TestBoundPhaseSteadyStateAllocs covers the bound phase's half of the
// allocation contract: a steady-state interval — scheduling, round
// execution on the persistent pool, mid-interval arbitration and time
// multiplexing — must not allocate once queues, pending-op buffers and
// assignment slices have warmed up. (Goroutine spawns would show up here
// too: `go` allocates.)
func TestBoundPhaseSteadyStateAllocs(t *testing.T) {
	cfg := config.SmallTest()
	cfg.NumCores = 4
	cfg.Contention = false
	sys, err := BuildSystem(cfg)
	if err != nil {
		t.Fatalf("BuildSystem: %v", err)
	}
	sched := virt.NewScheduler(cfg.NumCores)
	p := trace.DefaultParams()
	p.BlocksPerThread = 1 << 30 // effectively endless: intervals keep running
	p.WorkingSet = 16 << 10
	p.LockEvery = 24 // lock arbitration rounds
	p.NumLocks = 2
	p.LockHoldBlocks = 2
	p.BlockedSyscallEvery = 40 // syscall leave/join rounds
	p.BlockedSyscallCycles = 1500
	sched.AddWorkload(trace.New("alloc-bound", p, 6)) // oversubscribed: 6 threads, 4 cores
	sim := NewSimulator(sys, sched, telemetryOpts(Options{HostThreads: 2, Seed: 3}))
	iteration := func() { sim.runInterval() }
	// Long warmup: beyond queues and slabs, the lazily allocated cache set
	// arrays must all have been touched before measuring.
	for i := 0; i < 400; i++ {
		iteration()
	}
	allocs := testing.AllocsPerRun(50, iteration)
	if allocs > 2 {
		t.Fatalf("steady-state bound interval should be allocation-free, got %v allocs/run", allocs)
	}
}
