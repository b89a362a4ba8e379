package boundweave

// Allocation-regression tests for the weave hot path. The tentpole property
// of the pooled pipeline is that a steady-state interval — recording access
// traces, building the event graph, running the engine, and recycling the
// hop logs — performs O(1) heap allocations once the slabs, queues and
// logs have warmed up.

import (
	"reflect"
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

// bankComp is the component ID BuildSystem gives L3 bank b: the memory
// controllers are numbered first, from 0.
func bankComp(sys *System, b int) int { return len(sys.Mems) + b }

// fillRecorders injects one synthetic trace per core, a bank miss that goes
// to memory, using the given recycled buffers, and returns the replacement
// buffers.
func fillRecorders(sim *Simulator, bufs [][]cache.Hop) {
	bankComp, memComp := bankComp(sim.Sys, 0), 0
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
	rec := NewRecorder(0, nil)
	var buf []cache.Hop
	iteration := func() {
		for i := 0; i < 8; i++ {
			b := append(buf[:0],
				cache.Hop{Comp: 1, Kind: cache.HopMiss, Cycle: 20, Latency: 14},
				cache.Hop{Comp: 0, Kind: cache.HopMem, Cycle: 34, Latency: 100},
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

// TestRecorderHopLog checks the recorder's ownership contract: every trace
// hands the caller's own buffer back truncated, and the hop log holds a copy
// of each trace's hops, in order. A record's zero-load completion is its
// last hop's cycle plus latency. Records locate their hops by offset, so
// they hold no pointers. The traces are hop lists as a chip with one memory
// controller (component 0) and two L3 banks (1 and 2) records them: bank
// and controller hops, and network hops, which name no component.
func TestRecorderHopLog(t *testing.T) {
	rec := NewRecorder(0, nil)
	net := func(kind cache.HopKind, cycle uint64) cache.Hop {
		return cache.Hop{Comp: -1, Kind: kind, Src: 0, Dst: 3, Cycle: cycle, Latency: 5}
	}
	traces := []struct {
		hops []cache.Hop
		done uint64
	}{
		{[]cache.Hop{{Comp: 1, Kind: cache.HopHit, Cycle: 11, Latency: 14}}, 25},
		{[]cache.Hop{net(cache.HopNet, 20), {Comp: 2, Kind: cache.HopMiss, Cycle: 25, Latency: 14},
			net(cache.HopNetMem, 39), {Comp: 0, Kind: cache.HopMem, Cycle: 44, Latency: 100}}, 144},
		{[]cache.Hop{{Comp: 2, Kind: cache.HopWB, Cycle: 30}, {Comp: 0, Kind: cache.HopMem, Cycle: 30, Latency: 100},
			{Comp: 2, Kind: cache.HopMiss, Cycle: 30, Latency: 14}, {Comp: 0, Kind: cache.HopMem, Cycle: 44, Latency: 100}}, 144},
		{[]cache.Hop{{Comp: 1, Kind: cache.HopHit, Cycle: 41, Latency: 14}}, 55},
	}
	logged := 0
	for i, tr := range traces {
		buf := append(make([]cache.Hop, 0, 8), tr.hops...)
		back := rec.RecordAccess(0, uint64(i), false, buf)
		if len(back) != 0 || cap(back) != cap(buf) || &back[:1][0] != &buf[0] {
			t.Fatalf("trace %d: got a len=%d cap=%d buffer back, want the caller's own truncated", i, len(back), cap(back))
		}
		clear(buf[:cap(buf)]) // the log must not alias the caller's buffer
		logged += len(tr.hops)
	}
	for i, tr := range traces {
		r := &rec.recs[i]
		if r.issueCycle != uint64(i) || r.doneCycle != tr.done {
			t.Fatalf("record %d: issue cycle %d, done %d, want %d and %d", i, r.issueCycle, r.doneCycle, i, tr.done)
		}
		if hops := rec.hops(r); !reflect.DeepEqual(hops, tr.hops) {
			t.Fatalf("trace %d: logged hops %+v, want %+v", i, hops, tr.hops)
		}
	}
	if len(rec.recs) != len(traces) || len(rec.log) != logged {
		t.Fatalf("%d records over %d logged hops, want %d over %d", len(rec.recs), len(rec.log), len(traces), logged)
	}
	typ := reflect.TypeOf(accessRecord{})
	for i := 0; i < typ.NumField(); i++ {
		switch f := typ.Field(i); f.Type.Kind() {
		case reflect.Pointer, reflect.Slice, reflect.Map, reflect.Interface, reflect.Func,
			reflect.Chan, reflect.String, reflect.UnsafePointer:
			t.Errorf("accessRecord.%s is a %s: records must hold no pointers", f.Name, f.Type)
		}
	}
	rec.Reset()
	if len(rec.recs) != 0 || len(rec.log) != 0 {
		t.Fatalf("Reset left %d records and %d logged hops", len(rec.recs), len(rec.log))
	}
}

// TestRunWeaveSteadyStateAllocsNOC is TestRunWeaveSteadyStateAllocs with the
// NoC contention subsystem enabled: traces now carry network hops that the
// translation loop expands into per-router events along the mesh route, and
// the whole pipeline — route walk, router events, port scheduling — must
// still be allocation-free once slabs and queues have warmed up.
func TestRunWeaveSteadyStateAllocsNOC(t *testing.T) {
	cfg := meshNOC()
	sys, err := BuildSystem(cfg)
	if err != nil {
		t.Fatalf("BuildSystem: %v", err)
	}
	sched := virt.NewScheduler(cfg.NumCores)
	p := trace.DefaultParams()
	p.BlocksPerThread = 10
	sched.AddWorkload(trace.New("alloc-noc", p, cfg.NumCores))
	sim := NewSimulator(sys, sched, telemetryOpts(Options{HostThreads: 1, Seed: 1}))

	bankComp, memComp := bankComp(sys, 0), 0
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
// events must come from one simulator-wide slab: with one slab per core, each
// carving a 512-event chunk (~80 KB) on first use, this run allocated
// 104.7 MB. With the shared slab and one retained hop buffer per recorded
// access it allocated 15.2 MB; the budget is that figure plus 15%, so a
// return to per-access hop buffers (the per-core hop logs allocate less)
// fails it.
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
	if budget := 15.2 * 1.15; mb > budget {
		t.Fatalf("Run allocated %.1f MB; budget is %.1f MB", mb, budget)
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
	defer sim.pool.Close() // the intervals run outside Run, which would stop it
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
