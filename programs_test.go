package zsim

// Translation-cache tests: the process translates each program once, shares
// it between simulators, stays under its byte budget, and an evicted program
// a simulator still holds keeps running bit-identically.

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
)

// cacheParams is a small single-thread program keyed by seed and code size.
func cacheParams(seed uint64, static int) WorkloadParams {
	p := DefaultWorkloadParams()
	p.Seed = seed
	p.StaticBlocks = static
	p.BlocksPerThread = 200
	p.WorkingSet = 8 << 10
	return p
}

// heldProgram returns the program sim holds for its only workload.
func heldProgram(t *testing.T, sim *Simulator) program {
	t.Helper()
	if len(sim.programs) != 1 {
		t.Fatalf("simulator holds %d programs, want 1", len(sim.programs))
	}
	var held program
	for _, p := range sim.programs {
		held = p
	}
	return held
}

// Two fresh simulators that add the same workload share one translation; a
// different seed or thread count is a different program.
func TestTranslationSharedAcrossSimulators(t *testing.T) {
	build := func(seed uint64, threads int) program {
		t.Helper()
		sim, err := New(SmallConfig())
		if err != nil {
			t.Fatal(err)
		}
		sim.AddWorkload("shared", cacheParams(seed, 64), threads)
		return heldProgram(t, sim)
	}
	a, b := build(4242, 2), build(4242, 2)
	if a.w != b.w {
		t.Fatal("two fresh simulators translated the same program twice")
	}
	if a.bytes == 0 || a.chunks == 0 {
		t.Fatalf("program footprint not recorded: %+v", a)
	}
	if build(4243, 2).w == a.w {
		t.Fatal("a different seed reused another program's translation")
	}
	if build(4242, 3).w == a.w {
		t.Fatal("a different thread count reused another program's translation")
	}
}

// A cache stays under its byte budget as programs arrive, evicts the least
// recently used first, and does not keep a program bigger than the budget.
func TestTranslationCacheBudget(t *testing.T) {
	key := func(seed uint64, static int) programKey {
		return programKey{"budget", cacheParams(seed, static), 1}
	}
	size := newProgramCache(1 << 40).get(key(0, 64)).bytes
	c := newProgramCache(3*size + size/2) // room for three 64-block programs
	check := func(stage string, want ...uint64) {
		t.Helper()
		var sum uint64
		for _, e := range c.entries {
			sum += e.bytes
		}
		if sum != c.bytes || c.bytes > c.budget {
			t.Fatalf("%s: cache accounts %d B, holds %d B, budget %d B", stage, c.bytes, sum, c.budget)
		}
		if len(c.entries) != len(want) {
			t.Fatalf("%s: cache holds %d programs, want seeds %v", stage, len(c.entries), want)
		}
		for _, seed := range want {
			if _, ok := c.entries[key(seed, 64)]; !ok {
				t.Fatalf("%s: program of seed %d was evicted, want seeds %v kept", stage, seed, want)
			}
		}
	}
	for seed := uint64(1); seed <= 3; seed++ {
		c.get(key(seed, 64))
	}
	check("three programs", 1, 2, 3)
	c.get(key(1, 64)) // seed 2 is now the least recently used
	c.get(key(4, 64))
	check("a fourth program", 1, 3, 4)
	big := c.get(key(5, 4096))
	if big.w == nil || big.bytes <= c.budget {
		t.Fatalf("a 4096-block program should outgrow the %d B budget: %d B", c.budget, big.bytes)
	}
	check("a program over budget", 1, 3, 4)
}

// A program evicted from the process cache while a simulator holds it still
// runs, with the results of a fresh translation.
func TestTranslationEvictedProgramRuns(t *testing.T) {
	cfg := func() *Config {
		cfg := SmallConfig()
		cfg.Contention = true
		return cfg
	}
	setup := func() *Simulator {
		t.Helper()
		sim, err := New(cfg())
		if err != nil {
			t.Fatal(err)
		}
		sim.AddWorkload("evicted", cacheParams(777, 64), 1)
		sim.SetHostThreads(1)
		return sim
	}
	held := setup()
	k := programKey{"evicted", cacheParams(777, 64), 1}
	cached := func() bool {
		translations.mu.Lock()
		defer translations.mu.Unlock()
		_, ok := translations.entries[k]
		return ok
	}
	for seed := uint64(1); cached(); seed++ {
		if seed > 2*programBudget/(1<<20) {
			t.Fatal("filling the process cache never evicted the held program")
		}
		translations.get(programKey{"filler", cacheParams(seed, 4096), 1})
	}
	got, err := held.Run()
	if err != nil {
		t.Fatal(err)
	}
	fresh := setup()
	if heldProgram(t, fresh).w == heldProgram(t, held).w {
		t.Fatal("an evicted program was served from the cache")
	}
	want, err := fresh.Run()
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, "evicted program", want, got)
}

// Four simulators on four goroutines run one program — racing to translate
// it, then sharing its blocks — with the results of a serial run.
func TestTranslationConcurrentSimulators(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	p := cacheParams(9001, 256)
	p.WorkingSet = 64 << 10
	p.SharedFraction = 0
	run := func() (*Result, *Simulator, error) {
		sim, err := New(reuseCfg(false))
		if err != nil {
			return nil, nil, err
		}
		// One thread per core, pinned: inside the determinism envelope.
		for i := 0; i < 4; i++ {
			p := p
			p.AddrSpace = uint64(i + 1)
			sim.AddPinnedWorkload("concurrent", p, 1, []int{i})
		}
		sim.SetHostThreads(1)
		res, err := sim.Run()
		return res, sim, err
	}
	results := make([]*Result, 4)
	sims := make([]*Simulator, 4)
	errs := make([]error, 4)
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], sims[i], errs[i] = run()
		}()
	}
	wg.Wait()
	want, serial, err := run()
	if err != nil {
		t.Fatal(err)
	}
	for i := range results {
		if errs[i] != nil {
			t.Fatalf("simulator %d: %v", i, errs[i])
		}
		for k, prog := range serial.programs {
			if sims[i].programs[k].w != prog.w {
				t.Fatalf("simulator %d holds its own translation of %s (AddrSpace %d)", i, k.name, k.params.AddrSpace)
			}
		}
		requireIdentical(t, fmt.Sprintf("concurrent simulator %d", i), want, results[i])
	}
}
