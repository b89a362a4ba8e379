package zsim

// Warm-simulator reuse tests: a Simulator that is Reset between runs must be
// indistinguishable — bit-identical simulated results — from a
// freshly constructed one, with NoC contention on and off, across host
// parallelism levels, and after aborted (cancelled / cycle-limited) runs.
// Panicked runs are the exception: Reset must refuse them.

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"reflect"
	"runtime"
	"testing"
	"time"

	"zsim/internal/config"
)

// reuseCfg returns a small contention-enabled configuration with or without
// NoC contention. Each call returns a fresh copy (Validate and
// the facade mutate configs in place). Like the boundweave determinism
// tests, the L3 gets generous associativity so the disjoint per-process
// footprints never force an eviction whose victim choice could depend on
// bound-phase arrival order.
func reuseCfg(noc bool) *Config {
	cfg := SmallConfig()
	cfg.Contention = true
	cfg.L3.SizeKB = 4096
	cfg.L3.Ways = 32
	if noc {
		cfg.Network = config.NetMesh // 4 single-core tiles -> a 2x2 mesh
		cfg.NetRouterStage = 1
		cfg.NOCContention = true
		cfg.NOCLinkBytes = 4 // 18-flit packets: ports back up under load
	}
	return cfg
}

// reuseRun drives one full run on sim, inside the documented determinism
// envelope (DESIGN.md "Determinism model"): 8 single-thread processes in
// disjoint address-space slices, two pinned per core, with locks and
// blocking syscalls so the mid-interval scheduler is exercised without
// thread migration. blocks scales run length, host sets the bound phase's
// host threads; ctx == nil means Background.
func reuseRun(t *testing.T, sim *Simulator, ctx context.Context, blocks, host int) (*Result, error) {
	t.Helper()
	return reuseRunCode(t, sim, ctx, blocks, host, 16)
}

// reuseRunCode is reuseRun with each process's static code footprint set to
// static basic blocks.
func reuseRunCode(t *testing.T, sim *Simulator, ctx context.Context, blocks, host, static int) (*Result, error) {
	t.Helper()
	for i := 0; i < 8; i++ {
		p := DefaultWorkloadParams()
		p.Seed = uint64(1000 + 17*i)
		p.AddrSpace = uint64(i + 1) // disjoint address-space slices
		p.SharedFraction = 0
		p.WorkingSet = 8 << 10
		p.StaticBlocks = static
		p.BlocksPerThread = blocks
		p.LockEvery = 16
		p.NumLocks = 2
		p.LockHoldBlocks = 3
		p.BlockedSyscallEvery = 48
		p.BlockedSyscallCycles = 2500
		sim.AddPinnedWorkload(fmt.Sprintf("proc-%d", i), p, 1, []int{i % 4})
	}
	sim.SetHostThreads(host)
	sim.SetSeed(99)
	if ctx == nil {
		ctx = context.Background()
	}
	return sim.RunContext(ctx)
}

// normalizeResult zeroes the host-time-derived (and allocation-history)
// fields that legitimately differ between two otherwise identical runs.
func normalizeResult(r *Result) {
	if r == nil {
		return
	}
	r.ArenaChunks = 0
	r.ArenaBytes = 0
	if r.Metrics != nil {
		r.Metrics.HostNanos = 0
		r.Metrics.SimMIPS = 0
	}
}

func requireIdentical(t *testing.T, stage string, want, got *Result) {
	t.Helper()
	normalizeResult(want)
	normalizeResult(got)
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("%s: results diverge:\n want: %+v\n metrics %+v\n got:  %+v\n metrics %+v",
			stage, want, want.Metrics, got, got.Metrics)
	}
}

// TestReuseBitIdentityMatrix is the fresh-vs-reused identity matrix:
// GOMAXPROCS {1,4} x bound phase {serial (1 host thread), parallel (4)} x
// NoC {off,on}, plus a serial OOO core over MD1 memory with the cycle-driven
// weave DRAM model, with the reused simulator exercised after a clean run,
// after a cycle-limit abort, and after a cancellation — every subsequent clean
// run must match the fresh baseline exactly. The MD1 row is serial because
// MD1 retimes accesses in bound-phase arrival order.
func TestReuseBitIdentityMatrix(t *testing.T) {
	modes := []struct {
		name string
		noc  bool
		ooo  bool // ooo cores, md1 memory, cycle-driven weave DRAM
		host int
	}{
		{"serial", false, false, 1},
		{"parallel", false, false, 4},
		{"serial-noc", true, false, 1},
		{"parallel-noc", true, false, 4},
		{"serial-ooo-md1-cycle-driven", false, true, 1},
	}
	for _, gmp := range []int{1, 4} {
		for _, m := range modes {
			t.Run(fmt.Sprintf("gomaxprocs-%d/%s", gmp, m.name), func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(gmp))
				modeCfg := func() *Config {
					cfg := reuseCfg(m.noc)
					if m.ooo {
						cfg.CoreModel = config.CoreOOO
						cfg.MemModel = config.MemMD1
						cfg.WeaveMem = config.WeaveMemCycleDriven
					}
					return cfg
				}

				// Fresh baseline: ordinary single-use simulator.
				fresh, err := New(modeCfg())
				if err != nil {
					t.Fatal(err)
				}
				want, err := reuseRun(t, fresh, nil, 300, m.host)
				if err != nil {
					t.Fatalf("fresh run: %v", err)
				}
				if want.Sched.Live != 0 || want.Sched.Runnable != 0 {
					t.Errorf("completed run reports live threads: %+v", want.Sched)
				}
				if m.noc && (want.NOC.Traversals == 0 || want.NOC.BusyCycles == 0) {
					t.Errorf("NoC contention run reports no router activity: %+v", want.NOC)
				}

				// Simulator to reuse, run 1: must match fresh.
				sim, err := New(modeCfg())
				if err != nil {
					t.Fatal(err)
				}
				got, err := reuseRun(t, sim, nil, 300, m.host)
				if err != nil {
					t.Fatalf("reusable run 1: %v", err)
				}
				requireIdentical(t, "first run", want, got)

				// Reset + run 2 (clean -> clean).
				if err := sim.Reset(nil); err != nil {
					t.Fatalf("Reset after clean run: %v", err)
				}
				got, err = reuseRun(t, sim, nil, 300, m.host)
				if err != nil {
					t.Fatalf("reusable run 2: %v", err)
				}
				requireIdentical(t, "after clean run", want, got)

				// Reset into a cycle-limited abort, then Reset back to clean.
				limited := modeCfg()
				limited.MaxCycles = 3000
				if err := sim.Reset(limited); err != nil {
					t.Fatalf("Reset to limited cfg: %v", err)
				}
				if _, err = reuseRun(t, sim, nil, 300, m.host); err == nil {
					t.Fatalf("cycle-limited run should report a RunError")
				} else {
					var re *RunError
					if !errors.As(err, &re) || re.Reason != CycleLimit {
						t.Fatalf("cycle-limited run: %v", err)
					}
				}
				if err := sim.Reset(modeCfg()); err != nil {
					t.Fatalf("Reset after cycle-limit abort: %v", err)
				}
				got, err = reuseRun(t, sim, nil, 300, m.host)
				if err != nil {
					t.Fatalf("run after abort: %v", err)
				}
				requireIdentical(t, "after cycle-limit abort", want, got)

				// Reset into a cancelled run, then Reset back to clean.
				cancelled, cancel := context.WithCancel(context.Background())
				cancel()
				if err := sim.Reset(nil); err != nil {
					t.Fatalf("Reset before cancelled run: %v", err)
				}
				// A long workload guarantees the (asynchronously delivered)
				// cancellation lands mid-run rather than after completion.
				if _, err = reuseRun(t, sim, cancelled, 100000, m.host); err == nil {
					t.Fatalf("cancelled run should report a RunError")
				} else {
					var re *RunError
					if !errors.As(err, &re) || re.Reason != Cancelled {
						t.Fatalf("cancelled run: %v", err)
					}
				}
				if err := sim.Reset(nil); err != nil {
					t.Fatalf("Reset after cancellation: %v", err)
				}
				got, err = reuseRun(t, sim, nil, 300, m.host)
				if err != nil {
					t.Fatalf("run after cancellation: %v", err)
				}
				requireIdentical(t, "after cancellation", want, got)
			})
		}
	}
}

// TestResetChangesHostThreads: a Reset simulator runs at the host thread
// count it is given, not the one it was built with. A simulator built and
// run at 1 host thread, Reset and run at 4, must report four pool workers
// and give the results of a fresh 4-thread run. Four pinned processes in
// disjoint address spaces without synchronization keep every round at four
// cores, so the final probe sample reports a full round, and they stay
// inside the determinism envelope at any worker count.
func TestResetChangesHostThreads(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	run := func(sim *Simulator, host int) *Result { return runFullRounds(t, sim, host) }
	fresh, err := New(reuseCfg(false))
	if err != nil {
		t.Fatal(err)
	}
	want := run(fresh, 4)

	sim, err := New(reuseCfg(false))
	if err != nil {
		t.Fatal(err)
	}
	run(sim, 1)
	if err := sim.Reset(nil); err != nil {
		t.Fatal(err)
	}
	got := run(sim, 4)
	if w := sim.Probe().Snapshot().PoolWorkers; w != 4 {
		t.Errorf("PoolWorkers = %d after a Reset to 4 host threads, want 4", w)
	}
	requireIdentical(t, "Reset from 1 to 4 host threads", want, got)
}

// runFullRounds runs four pinned single-thread processes without
// synchronization on sim's four cores, so every bound round has four cores.
func runFullRounds(t *testing.T, sim *Simulator, host int) *Result {
	t.Helper()
	for i := 0; i < 4; i++ {
		p := DefaultWorkloadParams()
		p.Seed = uint64(1 + i)
		p.AddrSpace = uint64(i + 1)
		p.WorkingSet = 8 << 10
		p.BlocksPerThread = 1 << 20
		sim.AddPinnedWorkload(fmt.Sprintf("proc-%d", i), p, 1, []int{i})
	}
	sim.SetHostThreads(host)
	sim.SetSeed(99)
	sim.SetMaxInstructions(200000)
	res, err := sim.Run()
	if err != nil {
		t.Fatalf("run at %d host threads: %v", host, err)
	}
	return res
}

// panicObserver is an access observer that faults after a fixed number of
// observed accesses — the injected-fault vector for the panic-discard tests.
type panicObserver struct{ fuse int }

func (p *panicObserver) ObserveAccess(lineAddr uint64, write bool, coreID int, cycle uint64) {
	p.fuse--
	if p.fuse <= 0 {
		panic("injected observer fault")
	}
}

// TestReuseRefusedAfterPanic injects a panic into a simulator's run
// and requires (a) the run to be contained and typed, (b) Reset to refuse the
// panicked simulator, and (c) a replacement fresh simulator to still produce
// the baseline results — the discard-and-rebuild path the serve pool uses.
func TestReuseRefusedAfterPanic(t *testing.T) {
	fresh, err := New(reuseCfg(false))
	if err != nil {
		t.Fatal(err)
	}
	want, err := reuseRun(t, fresh, nil, 300, 4)
	if err != nil {
		t.Fatalf("fresh run: %v", err)
	}

	sim, err := New(reuseCfg(false))
	if err != nil {
		t.Fatal(err)
	}
	sim.sys.Cores[0].SetObserver(&panicObserver{fuse: 100})
	_, err = reuseRun(t, sim, nil, 300, 4)
	var re *RunError
	if !errors.As(err, &re) || re.Reason != Panicked {
		t.Fatalf("injected fault not typed as panic: %v", err)
	}
	if err := sim.Reset(nil); err == nil {
		t.Fatalf("Reset must refuse a panicked simulator")
	}

	replacement, err := New(reuseCfg(false))
	if err != nil {
		t.Fatal(err)
	}
	got, err := reuseRun(t, replacement, nil, 300, 4)
	if err != nil {
		t.Fatalf("replacement run: %v", err)
	}
	requireIdentical(t, "replacement after panic-discard", want, got)
}

// TestReuseShapeKeyGuards pins the Reset preconditions: a simulator that
// has not run yet may be Reset too, and a shape-changing configuration is
// rejected while a run-variable-only change is accepted.
func TestReuseShapeKeyGuards(t *testing.T) {
	plain, err := New(reuseCfg(false))
	if err != nil {
		t.Fatal(err)
	}
	if err := plain.Reset(nil); err != nil {
		t.Fatalf("Reset before the first run: %v", err)
	}

	sim, err := New(reuseCfg(false))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reuseRun(t, sim, nil, 300, 4); err != nil {
		t.Fatal(err)
	}

	other := reuseCfg(false)
	other.NumCores = 8
	if err := sim.Reset(other); err == nil {
		t.Fatalf("shape-changing Reset must fail")
	}

	same := reuseCfg(false)
	same.Name = "renamed"
	same.MaxCycles = 1 << 40
	if err := sim.Reset(same); err != nil {
		t.Fatalf("run-variable-only Reset should succeed: %v", err)
	}

	// The shape key itself: insensitive to run-variable fields, sensitive to
	// construction shape.
	a, b := reuseCfg(false), reuseCfg(false)
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
	b.Name, b.MaxCycles, b.MaxWallTime = "x", 123, 456
	b.WeaveDomains, b.WeaveModeKind = 7, "serial" // retired, inert knobs
	if a.ShapeKey() != b.ShapeKey() {
		t.Fatalf("shape key must ignore run-variable fields and the inert weave knobs")
	}
	b.L3.Banks = 4
	if a.ShapeKey() == b.ShapeKey() {
		t.Fatalf("shape key must see construction shape changes")
	}
}

// TestReuseArenaFootprintFlat pins the warm-memory claim: once a
// simulator has served one run, further Reset+run cycles of the same
// workloads allocate no new arena chunks — the construction arena and the
// retained workloads' arenas serve every subsequent run. The footprint
// includes the workloads' code: a 4096-static-block mix reports more than a
// 16-block one on the same chip.
func TestReuseArenaFootprintFlat(t *testing.T) {
	footprint := make(map[int]uint64)
	for _, static := range []int{16, 4096} {
		sim, err := New(reuseCfg(true))
		if err != nil {
			t.Fatal(err)
		}
		first, err := reuseRunCode(t, sim, nil, 300, 4, static)
		if err != nil {
			t.Fatal(err)
		}
		if first.ArenaChunks == 0 || first.ArenaBytes == 0 {
			t.Fatalf("arena stats missing from result: %+v", first)
		}
		for i := 0; i < 3; i++ {
			if err := sim.Reset(nil); err != nil {
				t.Fatal(err)
			}
			res, err := reuseRunCode(t, sim, nil, 300, 4, static)
			if err != nil {
				t.Fatal(err)
			}
			if res.ArenaChunks != first.ArenaChunks || res.ArenaBytes != first.ArenaBytes {
				t.Fatalf("%d static blocks: reuse %d grew the arenas: %d chunks / %d B, first run had %d / %d",
					static, i+1, res.ArenaChunks, res.ArenaBytes, first.ArenaChunks, first.ArenaBytes)
			}
		}
		footprint[static] = first.ArenaBytes
	}
	if footprint[4096] <= footprint[16] {
		t.Fatalf("ArenaBytes omits workload code: 4096 static blocks report %d B, 16 report %d B",
			footprint[4096], footprint[16])
	}
}

// mixProc is one process of a TestReuseProgramMix workload mix.
type mixProc struct {
	seed    uint64
	static  int
	threads int
}

// runMix runs one mix on sim inside the determinism envelope (disjoint
// address spaces, every process pinned to one core, serial bound phase) and
// returns the result and the program keys the run added.
func runMix(t *testing.T, sim *Simulator, mix []mixProc) (*Result, []programKey) {
	t.Helper()
	var keys []programKey
	for i, m := range mix {
		p := DefaultWorkloadParams()
		p.Seed = m.seed
		p.AddrSpace = uint64(i + 1)
		p.SharedFraction = 0
		p.WorkingSet = 8 << 10
		p.StaticBlocks = m.static
		p.BlocksPerThread = 200
		p.LockEvery = 16
		p.NumLocks = 2
		name := fmt.Sprintf("proc-%d", i)
		sim.AddPinnedWorkload(name, p, m.threads, []int{i % 4})
		keys = append(keys, programKey{name, p, m.threads})
	}
	sim.SetHostThreads(1)
	sim.SetSeed(7)
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res, keys
}

// TestReuseProgramMix changes the workload mix across Reset: the second mix
// repeats one of the first mix's processes exactly (its translated program
// is reused), changes another's seed and a third's thread count (both
// retranslated). Every run matches a fresh simulator's on the same mix, and
// after each run the simulator holds exactly that run's programs.
func TestReuseProgramMix(t *testing.T) {
	mixA := []mixProc{{1, 16, 1}, {2, 16, 1}, {3, 16, 2}}
	mixB := []mixProc{{1, 16, 1}, {5, 16, 1}, {3, 16, 1}}
	fresh := func(mix []mixProc) *Result {
		sim, err := New(reuseCfg(false))
		if err != nil {
			t.Fatal(err)
		}
		res, _ := runMix(t, sim, mix)
		return res
	}
	holdsExactly := func(stage string, sim *Simulator, keys []programKey) {
		t.Helper()
		if len(sim.programs) != len(keys) {
			t.Fatalf("%s: simulator holds %d programs, the run added %d", stage, len(sim.programs), len(keys))
		}
		for _, k := range keys {
			if _, ok := sim.programs[k]; !ok {
				t.Fatalf("%s: program %s of the run is not held", stage, k.name)
			}
		}
	}

	sim, err := New(reuseCfg(false))
	if err != nil {
		t.Fatal(err)
	}
	got, keysA := runMix(t, sim, mixA)
	requireIdentical(t, "mix A", fresh(mixA), got)
	holdsExactly("mix A", sim, keysA)

	for _, step := range []struct {
		stage string
		mix   []mixProc
	}{{"mix B", mixB}, {"mix A again", mixA}} {
		stage, prev := step.stage, maps.Clone(sim.programs)
		if err := sim.Reset(nil); err != nil {
			t.Fatal(err)
		}
		got, keys := runMix(t, sim, step.mix)
		requireIdentical(t, stage, fresh(step.mix), got)
		holdsExactly(stage, sim, keys)
		if keys[0] != keysA[0] || sim.programs[keys[0]].w != prev[keys[0]].w {
			t.Fatalf("%s: the repeated process did not reuse the previous run's program", stage)
		}
		for _, k := range keys[1:] {
			if _, held := prev[k]; held {
				t.Fatalf("%s: changed process %s has the previous run's key", stage, k.name)
			}
		}
	}
}

// TestConfigShapeKeyStability double-checks ShapeKey through the config
// package's own types (it is the key the serve pool indexes by).
func TestConfigShapeKeyStability(t *testing.T) {
	a := config.SmallTest()
	b := config.SmallTest()
	if a.ShapeKey() != b.ShapeKey() {
		t.Fatalf("identical configs must agree on shape")
	}
	b.CoreModel = config.CoreOOO
	if a.ShapeKey() == b.ShapeKey() {
		t.Fatalf("core model is construction shape")
	}
}

// settleGoroutines waits until at most base goroutines remain: a pool worker
// that its run has stopped and waited for still counts until its exit
// finishes.
func settleGoroutines(t *testing.T, stage string, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d goroutines, want the %d from before the run", stage, runtime.NumGoroutine(), base)
		}
		runtime.Gosched()
	}
}

// TestLifecycleNoWorkerOutlivesRun runs a simulator that was never marked
// reusable with a parallel bound phase, Resets it and runs it again: the
// second run matches the first, and after each the goroutine count is back
// where it was before the simulator was built, with no Close.
func TestLifecycleNoWorkerOutlivesRun(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	base := runtime.NumGoroutine()
	sim, err := New(reuseCfg(false))
	if err != nil {
		t.Fatal(err)
	}
	want := runFullRounds(t, sim, 2)
	if w := sim.Probe().Snapshot().PoolWorkers; w != 2 {
		t.Fatalf("first run's last round used %d bound workers, want 2", w)
	}
	settleGoroutines(t, "after the first run", base)
	if err := sim.Reset(nil); err != nil {
		t.Fatalf("Reset of a simulator never marked reusable: %v", err)
	}
	got := runFullRounds(t, sim, 2)
	settleGoroutines(t, "after the run after Reset", base)
	requireIdentical(t, "run after Reset", want, got)
}
