package boundweave

// Construction-cost regression tests: building a chip must stay a handful of
// large (arena-chunk) allocations per component, not a storm of small ones.
// bench/ (setup_s) tracks absolute cost; these bounds catch silent
// regressions in go test.

import (
	"reflect"
	"testing"

	"zsim/internal/cache"
	"zsim/internal/config"
	"zsim/internal/trace"
	"zsim/internal/virt"
)

// TestConstructionAllocsBounded builds the 1,024-core contended tiled chip —
// system, scheduler, workload and bound-weave simulator — and bounds the
// heap allocations per simulated core. Before arena-backed construction this
// path performed ~72 allocations per core (counters, predictor tables, cache
// set tables, registry nodes, name strings, event slabs); the arena brought
// it under 10, and arena-backing the workload decode (trace.NewIn, now five
// exactly sized program arrays per workload) removed most of what was left — the remainder is per-thread stream objects and
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
		NewSimulator(sys, sched, Options{HostThreads: 2, Seed: 1})
	})
	perCore := allocs / float64(cfg.NumCores)
	if perCore > 12 {
		t.Fatalf("construction allocates %.0f times (%.1f/core); budget is 12/core", allocs, perCore)
	}
}

// TestWorkloadDecodeAllocsBounded isolates workload translation: generating
// and translating a workload's whole static code footprint into an arena
// costs a constant number of heap allocations whatever its block count —
// the five program arrays, their pools, the generator's and the decoder's
// scratch — not the ~8 per block the per-block heap path performed (block,
// instruction growth, decoded BBL, µops, template, memory ops, live-outs)
// nor the amortized chunks of per-block arena takes. It measures 18-19.
func TestWorkloadDecodeAllocsBounded(t *testing.T) {
	cfg := config.SmallTest()
	sys, err := BuildSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, blocks := range []int{1, 512, 8192} {
		p := trace.DefaultParams()
		p.StaticBlocks = blocks
		allocs := testing.AllocsPerRun(3, func() {
			trace.NewIn(sys.Root.Arena(), "decode", p, 1)
		})
		if allocs > 24 {
			t.Fatalf("translating a workload of %d blocks allocates %.0f times; budget is 24 per workload",
				blocks, allocs)
		}
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
		NewSimulator(sys, sched, Options{HostThreads: 2, Seed: 1})
	})
	// Budget: simulator + pool + engine + contention models + a few
	// amortized arena chunks — independent of the core count.
	if allocs > 128 {
		t.Fatalf("NewSimulator allocates %.0f times; budget is 128 (O(1), not O(cores))", allocs)
	}
}

// chipObjectBytes sums the bytes of the objects BuildSystem takes from the
// chip's arena: the registry nodes, the cores, and each cache with its slot
// table, lock stripes and dirty bitmap. It covers a chip without NoC
// contention, whose fabric would take from the arena too.
func chipObjectBytes(sys *System) uint64 {
	var n uint64
	var walk func(r reflect.Value)
	walk = func(r reflect.Value) {
		n += uint64(r.Elem().Type().Size())
		kids := r.Elem().FieldByName("children")
		for i := range kids.Len() {
			walk(kids.Index(i))
		}
	}
	walk(reflect.ValueOf(sys.Root))
	for _, c := range sys.Cores {
		n += uint64(reflect.TypeOf(c).Elem().Size())
	}
	for _, level := range [][]*cache.Cache{sys.L1I, sys.L1D, sys.L2, sys.Banks} {
		for _, c := range level {
			v := reflect.ValueOf(c).Elem()
			n += uint64(v.Type().Size())
			for _, f := range []string{"slots", "stripes", "dirty"} {
				s := v.FieldByName(f)
				n += uint64(s.Len()) * uint64(s.Type().Elem().Size())
			}
		}
	}
	return n
}

// Building the 1,024-core chip reserves each type's arena storage at its
// count from the config (registry nodes, cores, caches, slot tables,
// stripes, dirty-bitmap words), so the arena holds little beyond the bytes
// its objects take: no type ends in a half-carved doubling chunk.
func TestChipArenaTight(t *testing.T) {
	for _, model := range []config.CoreModel{config.CoreIPC1, config.CoreOOO} {
		cfg := config.TiledChip(64, model)
		sys, err := BuildSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		_, bytes := sys.Root.Arena().Stats()
		objects := chipObjectBytes(sys)
		t.Logf("%s cores: arena %d B, objects %d B", model, bytes, objects)
		if bytes < objects || float64(bytes) > 1.02*float64(objects) {
			t.Fatalf("%s cores: arena holds %d B for %d B of objects; want within 2%%", model, bytes, objects)
		}
	}
}
