package boundweave

// Construction-cost regression tests: building a chip must stay a handful of
// large (arena-chunk) allocations per component, not a storm of small ones.
// bench/ (setup_s) tracks absolute cost; these bounds catch silent
// regressions in go test.

import (
	"testing"

	"zsim/internal/config"
	"zsim/internal/trace"
	"zsim/internal/virt"
)

// TestConstructionAllocsBounded builds the 1,024-core contended tiled chip —
// system, scheduler, workload and bound-weave simulator — and bounds the
// heap allocations per simulated core. Before arena-backed construction this
// path performed ~72 allocations per core (counters, predictor tables, cache
// set tables, registry nodes, name strings, event slabs); the arena brought
// it under 10, and arena-backing the workload decode (trace.NewIn +
// isa.DecodeIn: blocks, µops, timing templates, decoder cache) removed most
// of what was left — the remainder is per-thread stream objects and
// scheduler state.
func TestConstructionAllocsBounded(t *testing.T) {
	cfg := config.TiledChip(64, config.CoreIPC1) // 1,024 cores, contention on
	allocs := testing.AllocsPerRun(3, func() {
		sys, err := BuildSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sched := virt.NewScheduler(cfg.NumCores)
		p := trace.DefaultParams()
		sched.AddWorkload(trace.NewIn(sys.Root.Arena(), "construct", p, cfg.NumCores))
		NewSimulator(sys, sched, Options{HostThreads: 2, Seed: 1}).Close()
	})
	perCore := allocs / float64(cfg.NumCores)
	if perCore > 12 {
		t.Fatalf("construction allocates %.0f times (%.1f/core); budget is 12/core", allocs, perCore)
	}
}

// TestWorkloadDecodeAllocsBounded isolates the decoder-cache arena hook:
// generating and decoding a workload's whole static code footprint into an
// arena must cost a bounded number of heap allocations (chunks, the decoder
// map's buckets and per-thread bookkeeping), not the ~4k per-block
// allocations the heap path performs.
func TestWorkloadDecodeAllocsBounded(t *testing.T) {
	cfg := config.SmallTest()
	sys, err := BuildSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := trace.DefaultParams()
	p.StaticBlocks = 512
	allocs := testing.AllocsPerRun(3, func() {
		trace.NewIn(sys.Root.Arena(), "decode", p, 1)
	})
	// Heap path: ~8 allocations per static block (block, instrs growth,
	// decoded BBL, µops, template, mem-ops, live-out, map insert). Arena
	// path: map buckets plus amortized chunk allocations.
	if allocs > float64(p.StaticBlocks) {
		t.Fatalf("arena-backed workload decode allocates %.0f times for %d blocks; want < 1/block",
			allocs, p.StaticBlocks)
	}
}

// TestNewSimulatorAllocsBounded isolates NewSimulator itself (recorders,
// event slab, weave engine, pool, scratch): on an already-built system it
// must stay O(1) — every per-core table is one exactly sized allocation.
func TestNewSimulatorAllocsBounded(t *testing.T) {
	cfg := config.TiledChip(4, config.CoreIPC1)
	sys, err := BuildSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sched := virt.NewScheduler(cfg.NumCores)
	p := trace.DefaultParams()
	p.BlocksPerThread = 1
	sched.AddWorkload(trace.New("construct", p, cfg.NumCores))
	allocs := testing.AllocsPerRun(5, func() {
		NewSimulator(sys, sched, Options{HostThreads: 2, Seed: 1}).Close()
	})
	// Budget: simulator + pool + engine + contention models + a few
	// amortized arena chunks — independent of the core count.
	if allocs > 128 {
		t.Fatalf("NewSimulator allocates %.0f times; budget is 128 (O(1), not O(cores))", allocs)
	}
}
