package baseline

import (
	"testing"

	"zsim/internal/boundweave"
	"zsim/internal/config"
	"zsim/internal/trace"
	"zsim/internal/virt"
)

func testCfg() *config.System {
	cfg := config.SmallTest()
	cfg.NumCores = 4
	return cfg
}

func testWorkload(threads, blocks int) *trace.Workload {
	p := trace.DefaultParams()
	p.BlocksPerThread = blocks
	p.ScaleWork = false
	return trace.New("baseline-test", p, threads)
}

func TestRunGoldenSingleThread(t *testing.T) {
	res, err := RunGolden(testCfg(), testWorkload(1, 500), 0)
	if err != nil {
		t.Fatalf("RunGolden: %v", err)
	}
	m := res.Metrics
	if m.Instrs == 0 || m.Cycles == 0 {
		t.Fatalf("golden run should execute work: %+v", m)
	}
	if m.IPC <= 0 || m.IPC > 4 {
		t.Fatalf("implausible golden IPC: %f", m.IPC)
	}
	if m.Model == "" || m.Workload == "" {
		t.Fatalf("metrics should be labelled")
	}
}

// TestRunGoldenMultithreadedWithSync pins the golden model's schedule on
// synchronization-heavy workloads to literal signatures: a change in how
// locks, barriers or blocking syscalls are resolved moves them.
func TestRunGoldenMultithreadedWithSync(t *testing.T) {
	syncHeavy := trace.DefaultParams()
	syncHeavy.BlocksPerThread = 400
	syncHeavy.LockEvery = 30
	syncHeavy.LockHoldBlocks = 2
	syncHeavy.BarrierEvery = 100
	syncHeavy.SerialFraction = 0.1

	// Six threads on four cores: locks, blocking syscalls and barriers.
	mixed := trace.DefaultParams()
	mixed.BlocksPerThread = 500
	mixed.LockEvery = 20
	mixed.NumLocks = 2
	mixed.LockHoldBlocks = 3
	mixed.BlockedSyscallEvery = 40
	mixed.BlockedSyscallCycles = 3000
	mixed.BarrierEvery = 120

	cases := []struct {
		name           string
		p              trace.Params
		threads        int
		cycles, instrs uint64
	}{
		{"sync-heavy", syncHeavy, 4, 33803, 8629},
		{"lock-syscall-barrier", mixed, 6, 84770, 16517},
		{"syscalls", syscallParams(), 3, 40536, 4802},
	}
	for _, tc := range cases {
		res, err := RunGolden(testCfg(), trace.New(tc.name, tc.p, tc.threads), 0)
		if err != nil {
			t.Fatalf("%s: RunGolden: %v", tc.name, err)
		}
		m := res.Metrics
		if m.Cycles != tc.cycles || m.Instrs != tc.instrs {
			t.Errorf("%s: cycles=%d instrs=%d, want cycles=%d instrs=%d",
				tc.name, m.Cycles, m.Instrs, tc.cycles, tc.instrs)
		}
		if m.Cores != 4 {
			t.Errorf("%s: expected 4 cores in metrics, got %d", tc.name, m.Cores)
		}
	}
}

func syscallParams() trace.Params {
	p := trace.DefaultParams()
	p.BlocksPerThread = 300
	p.BlockedSyscallEvery = 40
	p.BlockedSyscallCycles = 3000
	return p
}

// TestGoldenSchedulerCountsSettle checks that the golden run leaves the
// scheduler's thread gauges at zero: every state change, including waking
// from a blocking syscall, goes through the scheduler.
func TestGoldenSchedulerCountsSettle(t *testing.T) {
	cfg := *testCfg()
	cfg.MemModel = config.MemMD1
	sys, err := boundweave.BuildSystem(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	sched := virt.NewScheduler(cfg.NumCores)
	sched.AddWorkload(trace.New("syscalls", syscallParams(), 3))
	runSequential(sys, sched, 0)
	if sched.Counts().Runnable != 0 || sched.LiveThreads() != 0 {
		t.Fatalf("after the run: live=%d runnable=%d, want 0 and 0",
			sched.LiveThreads(), sched.Counts().Runnable)
	}
	if sched.Counts().SyscallBlocks == 0 {
		t.Fatalf("the workload should block in syscalls")
	}
}

func TestRunGoldenMaxInstrs(t *testing.T) {
	res, err := RunGolden(testCfg(), testWorkload(2, 100000), 20000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.Instrs < 20000 || res.Metrics.Instrs > 80000 {
		t.Fatalf("golden run should stop near the instruction bound, got %d", res.Metrics.Instrs)
	}
}

func TestGoldenParallelSpeedupShape(t *testing.T) {
	// The golden reference must also show parallel speedup for a scalable
	// workload (it is the "real machine" for the Figure 6 speedup curves).
	run := func(threads int) uint64 {
		p := trace.DefaultParams()
		p.BlocksPerThread = 2400
		p.ScaleWork = true
		p.SerialFraction = 0.05
		w := trace.New("scaling", p, threads)
		res, err := RunGolden(testCfg(), w, 0)
		if err != nil {
			t.Fatal(err)
		}
		return res.Metrics.Cycles
	}
	one := run(1)
	four := run(4)
	if float64(one)/float64(four) < 1.8 {
		t.Fatalf("golden model should show parallel speedup: 1t=%d 4t=%d", one, four)
	}
}

func TestBaselineRejectsBadConfig(t *testing.T) {
	bad := &config.System{}
	if _, err := RunGolden(bad, testWorkload(1, 10), 0); err == nil {
		t.Fatalf("golden should reject invalid configs")
	}
}
