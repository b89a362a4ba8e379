package boundweave

import (
	"testing"

	"zsim/internal/cache"
	"zsim/internal/config"
	"zsim/internal/trace"
	"zsim/internal/virt"
)

func smallWorkload(name string, threads, blocks int) *trace.Workload {
	p := trace.DefaultParams()
	p.BlocksPerThread = blocks
	p.WorkingSet = 1 << 18
	return trace.New(name, p, threads)
}

func TestBuildSystemWestmere(t *testing.T) {
	sys, err := BuildSystem(config.WestmereValidation())
	if err != nil {
		t.Fatalf("BuildSystem: %v", err)
	}
	if len(sys.Cores) != 6 || len(sys.L1I) != 6 || len(sys.L1D) != 6 {
		t.Fatalf("expected 6 cores with private L1s")
	}
	if len(sys.L2) != 6 {
		t.Fatalf("Westmere has private L2s (one per core), got %d", len(sys.L2))
	}
	if len(sys.Banks) != 6 || sys.L3.NumBanks() != 6 {
		t.Fatalf("expected a 6-bank L3")
	}
	if len(sys.Mems) != 1 {
		t.Fatalf("expected 1 memory controller")
	}
	// Shared components are exactly the banks + controllers.
	if len(sys.SharedComp) != 7 {
		t.Fatalf("expected 7 shared components, got %d", len(sys.SharedComp))
	}
	if sys.Cores[0].Name() != "ooo" {
		t.Fatalf("Westmere preset uses OOO cores")
	}
}

func TestBuildSystemTiled(t *testing.T) {
	sys, err := BuildSystem(config.TiledChip(4, config.CoreIPC1))
	if err != nil {
		t.Fatalf("BuildSystem: %v", err)
	}
	if len(sys.Cores) != 64 {
		t.Fatalf("4 tiles should have 64 cores")
	}
	if len(sys.L2) != 4 {
		t.Fatalf("one shared L2 per tile expected, got %d", len(sys.L2))
	}
	if len(sys.Banks) != 4 {
		t.Fatalf("one L3 bank per tile expected")
	}
	if sys.Cores[0].Name() != "ipc1" {
		t.Fatalf("requested IPC1 cores")
	}
	if len(sys.Mems) != 2 {
		t.Fatalf("one controller per tile pair expected, got %d", len(sys.Mems))
	}
}

func TestBuildSystemRejectsInvalid(t *testing.T) {
	if _, err := BuildSystem(&config.System{}); err == nil {
		t.Fatalf("invalid config should be rejected")
	}
}

func runSmall(t *testing.T, cfg *config.System, threads, blocks int, opts Options) (*System, *Simulator) {
	t.Helper()
	sys, err := BuildSystem(cfg)
	if err != nil {
		t.Fatalf("BuildSystem: %v", err)
	}
	sched := virt.NewScheduler(cfg.NumCores)
	sched.AddWorkload(smallWorkload("test", threads, blocks))
	sim := NewSimulator(sys, sched, opts)
	sim.Run()
	return sys, sim
}

func TestSimulatorRunsToCompletion(t *testing.T) {
	cfg := config.SmallTest()
	sys, sim := runSmall(t, cfg, 4, 400, Options{HostThreads: 2, Seed: 1})
	m := sys.Metrics()
	if m.Instrs == 0 || m.Cycles == 0 {
		t.Fatalf("simulation should execute work: %+v", m)
	}
	if m.IPC <= 0 || m.IPC > 4*4 {
		t.Fatalf("implausible aggregate IPC: %f", m.IPC)
	}
	if sim.Intervals == 0 {
		t.Fatalf("intervals should be counted")
	}
	if sim.Sched.LiveThreads() != 0 {
		t.Fatalf("all threads should finish")
	}
	// Caches saw traffic.
	if m.L1DMisses == 0 || m.MemReads == 0 {
		t.Fatalf("memory hierarchy should see traffic: %+v", m)
	}
}

func TestSimulatorMaxInstrs(t *testing.T) {
	cfg := config.SmallTest()
	_, sim := runSmall(t, cfg, 4, 100000, Options{MaxInstrs: 50000, HostThreads: 2})
	total := sim.totalInstrs()
	if total < 50000 {
		t.Fatalf("should simulate at least MaxInstrs, got %d", total)
	}
	if total > 50000*4 {
		t.Fatalf("should stop soon after MaxInstrs, got %d", total)
	}
}

func TestSimulatorMaxIntervals(t *testing.T) {
	cfg := config.SmallTest()
	_, sim := runSmall(t, cfg, 2, 1000000, Options{MaxIntervals: 5, HostThreads: 2})
	if sim.Intervals != 5 {
		t.Fatalf("should stop after 5 intervals, got %d", sim.Intervals)
	}
}

func TestContentionSlowsMemoryBoundWorkload(t *testing.T) {
	// A bandwidth-heavy workload on many cores: with the weave phase enabled
	// the simulated execution must take more cycles than with zero-load
	// latencies only.
	mk := func(contention bool) uint64 {
		cfg := config.SmallTest()
		cfg.NumCores = 8
		cfg.CoreModel = config.CoreIPC1
		cfg.Contention = contention
		p := trace.MustLookup("stream")
		p.BlocksPerThread = 300
		p.WorkingSet = 8 << 20
		w := trace.New("stream", p, 8)
		sys, err := BuildSystem(cfg)
		if err != nil {
			t.Fatalf("BuildSystem: %v", err)
		}
		sched := virt.NewScheduler(cfg.NumCores)
		sched.AddWorkload(w)
		sim := NewSimulator(sys, sched, Options{HostThreads: 4, Seed: 7})
		sim.Run()
		if contention && sim.TotalFeedback == 0 {
			t.Fatalf("contention run should feed delays back into the cores")
		}
		return sys.Metrics().Cycles
	}
	nc := mk(false)
	c := mk(true)
	if c <= nc {
		t.Fatalf("contention should increase simulated time: %d (C) vs %d (NC)", c, nc)
	}
}

func TestRecorderFiltersPrivateAccesses(t *testing.T) {
	shared := map[int]bool{100: true}
	r := NewRecorder(0, shared)
	r.RecordAccess(0, 10, false, []cache.Hop{{Comp: 1, Kind: cache.HopMiss, Cycle: 10, Latency: 4}}) // private only
	if r.Len() != 0 || r.Dropped != 1 {
		t.Fatalf("private-only access should be dropped")
	}
	r.RecordAccess(0, 20, false, []cache.Hop{
		{Comp: 1, Kind: cache.HopMiss, Cycle: 20, Latency: 4},
		{Comp: 100, Kind: cache.HopHit, Cycle: 30, Latency: 14},
	})
	if r.Len() != 1 {
		t.Fatalf("shared access should be recorded")
	}
	r.Reset()
	if r.Len() != 0 {
		t.Fatalf("reset should clear records")
	}
}

func TestBankModelContention(t *testing.T) {
	b := NewBankModel(10, 2, 100)
	// Two accesses at the same cycle: the port serializes them.
	f1 := b.Schedule(50, false)
	f2 := b.Schedule(50, false)
	if f1 != 60 || f2 != 61 {
		t.Fatalf("port contention wrong: %d %d", f1, f2)
	}
	if b.PortConflicts != 1 {
		t.Fatalf("port conflict should be counted")
	}
	// MSHR limit: the third concurrent miss waits for an MSHR.
	b.Reset()
	b.Schedule(0, true)
	b.Schedule(0, true)
	f3 := b.Schedule(0, true)
	if f3 < 100 {
		t.Fatalf("MSHR-limited miss should wait for a free MSHR, finished at %d", f3)
	}
	if b.MSHRStalls == 0 {
		t.Fatalf("MSHR stall should be counted")
	}
	// Zero missHold defaults.
	if NewBankModel(1, 1, 0).MissHoldCycles == 0 {
		t.Fatalf("missHold should default")
	}
}

func TestInterferenceProfilerRules(t *testing.T) {
	p := NewInterferenceProfiler(1000)
	// Same line, same interval, different cores, both reads: NOT interfering.
	p.ObserveAccess(10, false, 0, 100)
	p.ObserveAccess(10, false, 1, 200)
	if p.Interfering != 0 {
		t.Fatalf("read-read sharing is not path-altering")
	}
	// A write from another core to the same line in the same interval IS.
	p.ObserveAccess(10, true, 2, 300)
	if p.Interfering != 1 {
		t.Fatalf("write to a read-shared line should interfere, got %d", p.Interfering)
	}
	// Subsequent read from yet another core also interferes (the line has
	// been written this interval).
	p.ObserveAccess(10, false, 3, 400)
	if p.Interfering != 2 {
		t.Fatalf("read after write should interfere, got %d", p.Interfering)
	}
	// Same core repeatedly writing its own line: not interfering.
	p.ObserveAccess(99, true, 5, 100)
	p.ObserveAccess(99, true, 5, 200)
	if p.Interfering != 2 {
		t.Fatalf("single-core accesses must not interfere")
	}
	// A new interval resets the line's history.
	p.ObserveAccess(10, true, 7, 5100)
	if p.Interfering != 2 {
		t.Fatalf("first access of a new interval must not interfere")
	}
	if p.Total != 7 {
		t.Fatalf("total accesses should be counted, got %d", p.Total)
	}
	if p.Fraction() <= 0 || p.Fraction() >= 1 {
		t.Fatalf("fraction out of range: %f", p.Fraction())
	}
	p.Reset()
	if p.Total != 0 || p.Fraction() != 0 {
		t.Fatalf("reset should clear the profiler")
	}
	// Zero interval length defaults to 1000.
	if NewInterferenceProfiler(0).intervalLen != 1000 {
		t.Fatalf("interval length should default")
	}
}

func TestInterferenceGrowsWithIntervalLength(t *testing.T) {
	// With a longer reordering window, more same-line cross-core accesses
	// fall into the same interval, so the interfering fraction cannot be
	// smaller (this is the key trend of Figure 2).
	run := func(intervalLen uint64) float64 {
		cfg := config.SmallTest()
		cfg.NumCores = 4
		cfg.Contention = false
		prof := NewInterferenceProfiler(intervalLen)
		p := trace.DefaultParams()
		p.BlocksPerThread = 400
		p.SharedFraction = 0.4
		p.SharedWorkingSet = 1 << 16
		p.StoreFraction = 0.4
		w := trace.New("sharing", p, 4)
		sys, err := BuildSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sched := virt.NewScheduler(cfg.NumCores)
		sched.AddWorkload(w)
		sim := NewSimulator(sys, sched, Options{Profiler: prof, HostThreads: 2, Seed: 3})
		sim.Run()
		if prof.Total == 0 {
			t.Fatalf("profiler should observe accesses")
		}
		return prof.Fraction()
	}
	f1k := run(1000)
	f100k := run(100000)
	if f100k < f1k {
		t.Fatalf("interference fraction should not shrink with longer intervals: 1K=%g 100K=%g", f1k, f100k)
	}
}

func TestMultithreadedSpeedup(t *testing.T) {
	// A fixed-size parallel workload should finish in fewer simulated cycles
	// with more cores (this is the mechanism behind the Figure 6 speedup
	// curves).
	run := func(threads int) uint64 {
		cfg := config.SmallTest()
		cfg.NumCores = 8
		cfg.CoreModel = config.CoreIPC1
		cfg.Contention = false
		p := trace.DefaultParams()
		p.BlocksPerThread = 3200
		p.ScaleWork = true
		p.SerialFraction = 0.05
		w := trace.New("scaling", p, threads)
		sys, err := BuildSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sched := virt.NewScheduler(cfg.NumCores)
		sched.AddWorkload(w)
		NewSimulator(sys, sched, Options{HostThreads: 4, Seed: 9}).Run()
		return sys.Metrics().Cycles
	}
	one := run(1)
	four := run(4)
	speedup := float64(one) / float64(four)
	if speedup < 2.0 {
		t.Fatalf("4 threads should be at least 2x faster than 1 on a scalable workload, got %.2fx", speedup)
	}
	if speedup > 4.5 {
		t.Fatalf("speedup cannot meaningfully exceed the thread count, got %.2fx", speedup)
	}
}

func TestLockContentionLimitsSpeedup(t *testing.T) {
	// With a single heavily-contended lock, parallel efficiency should be
	// clearly worse than in the lock-free case.
	run := func(lockEvery int) float64 {
		cycles := func(threads int) uint64 {
			cfg := config.SmallTest()
			cfg.NumCores = 4
			cfg.CoreModel = config.CoreIPC1
			cfg.Contention = false
			p := trace.DefaultParams()
			p.BlocksPerThread = 2000
			p.ScaleWork = true
			p.LockEvery = lockEvery
			p.LockHoldBlocks = 6
			p.NumLocks = 1
			w := trace.New("locky", p, threads)
			sys, err := BuildSystem(cfg)
			if err != nil {
				t.Fatal(err)
			}
			sched := virt.NewScheduler(cfg.NumCores)
			sched.AddWorkload(w)
			NewSimulator(sys, sched, Options{HostThreads: 2, Seed: 11}).Run()
			return sys.Metrics().Cycles
		}
		return float64(cycles(1)) / float64(cycles(4))
	}
	free := run(0)
	locky := run(8)
	if locky >= free {
		t.Fatalf("lock contention should reduce speedup: free=%.2fx locky=%.2fx", free, locky)
	}
}

func TestOversubscription(t *testing.T) {
	// 12 software threads on a 4-core chip must still run to completion via
	// the round-robin scheduler.
	cfg := config.SmallTest()
	cfg.NumCores = 4
	sys, err := BuildSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sched := virt.NewScheduler(cfg.NumCores)
	sched.AddWorkload(smallWorkload("many-threads", 12, 200))
	sim := NewSimulator(sys, sched, Options{HostThreads: 2, Seed: 5})
	sim.Run()
	if sched.LiveThreads() != 0 {
		t.Fatalf("all oversubscribed threads should finish, %d left", sched.LiveThreads())
	}
	if sched.Counts().ContextSwitches < 12 {
		t.Fatalf("round-robin scheduling should context switch, got %d", sched.Counts().ContextSwitches)
	}
	if sys.Metrics().Instrs == 0 {
		t.Fatalf("work should have been executed")
	}
}

func TestBlockedSyscallsDoNotDeadlock(t *testing.T) {
	cfg := config.SmallTest()
	cfg.NumCores = 2
	p := trace.DefaultParams()
	p.BlocksPerThread = 300
	p.BlockedSyscallEvery = 40
	p.BlockedSyscallCycles = 20000 // several intervals long
	w := trace.New("syscalls", p, 2)
	sys, err := BuildSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sched := virt.NewScheduler(cfg.NumCores)
	sched.AddWorkload(w)
	sim := NewSimulator(sys, sched, Options{HostThreads: 2, Seed: 2})
	sim.Run()
	if sched.LiveThreads() != 0 {
		t.Fatalf("syscall-heavy workload should finish")
	}
	if sched.Counts().SyscallBlocks == 0 {
		t.Fatalf("blocking syscalls should have been taken")
	}
	// Blocked time is reflected in simulated time: the run must span more
	// cycles than a version without syscalls.
	if sys.Metrics().Cycles < 20000 {
		t.Fatalf("blocked time should advance simulated time, got %d cycles", sys.Metrics().Cycles)
	}
}

func TestWeaveEventsGeneratedUnderContention(t *testing.T) {
	cfg := config.SmallTest()
	cfg.NumCores = 4
	cfg.Contention = true
	p := trace.MustLookup("mcf")
	p.BlocksPerThread = 300
	w := trace.New("mcf", p, 4)
	sys, err := BuildSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sched := virt.NewScheduler(cfg.NumCores)
	sched.AddWorkload(w)
	sim := NewSimulator(sys, sched, Options{HostThreads: 2, Seed: 4})
	sim.Run()
	if sim.WeaveEvents == 0 {
		t.Fatalf("memory-bound workload should generate weave events")
	}
	if sim.BoundNanos == 0 || sim.WeaveNanos == 0 || sim.ChainNanos == 0 {
		t.Fatalf("phase timing should be measured")
	}
	if sim.ChainNanos > sim.WeaveNanos {
		t.Fatalf("chain build (%d ns) is part of the weave phase (%d ns)", sim.ChainNanos, sim.WeaveNanos)
	}
}

func TestMidIntervalReschedulingKeepsCoresBusy(t *testing.T) {
	// Oversubscribed, blocking-heavy workload: when a thread blocks on a
	// lock or syscall mid-interval, the freed core must immediately pull the
	// next runnable thread instead of idling until the interval barrier.
	cfg := config.SmallTest()
	cfg.NumCores = 4
	p := trace.DefaultParams()
	p.BlocksPerThread = 400
	p.LockEvery = 20
	p.NumLocks = 2
	p.LockHoldBlocks = 4
	p.BlockedSyscallEvery = 50
	p.BlockedSyscallCycles = 2500
	w := trace.New("busy", p, 10) // 10 software threads on 4 cores
	sys, err := BuildSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sched := virt.NewScheduler(cfg.NumCores)
	sched.AddWorkload(w)
	sim := NewSimulator(sys, sched, Options{HostThreads: 2, Seed: 6})
	sim.Run()
	if sched.LiveThreads() != 0 {
		t.Fatalf("all threads should finish, %d left", sched.LiveThreads())
	}
	if sched.Counts().MidIntervalJoins == 0 {
		t.Fatalf("blocking threads should trigger mid-interval joins")
	}
	if sim.BoundRounds <= sim.Intervals {
		t.Fatalf("mid-interval rescheduling should add rounds: %d rounds over %d intervals",
			sim.BoundRounds, sim.Intervals)
	}
}

func TestIdleIntervalFastForward(t *testing.T) {
	// When every thread is blocked in long syscalls, the driver must jump
	// simulated time straight to the next wake instead of stepping empty
	// intervals one by one.
	cfg := config.SmallTest()
	cfg.NumCores = 2
	p := trace.DefaultParams()
	p.BlocksPerThread = 30
	p.BlockedSyscallEvery = 10
	p.BlockedSyscallCycles = 200000 // 200 interval lengths
	w := trace.New("sleepy", p, 2)
	sys, err := BuildSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sched := virt.NewScheduler(cfg.NumCores)
	sched.AddWorkload(w)
	sim := NewSimulator(sys, sched, Options{HostThreads: 2, Seed: 8})
	sim.Run()
	if sched.LiveThreads() != 0 {
		t.Fatalf("workload should finish")
	}
	cycles := sys.Metrics().Cycles
	if cycles < 400000 {
		t.Fatalf("blocked time should advance simulated time, got %d cycles", cycles)
	}
	naiveIntervals := cycles / cfg.IntervalCycles
	if sim.Intervals*5 > naiveIntervals {
		t.Fatalf("idle intervals should be fast-forwarded: %d intervals for %d cycles (naive: %d)",
			sim.Intervals, cycles, naiveIntervals)
	}
}

func TestStalledWorkloadTerminates(t *testing.T) {
	// A genuinely deadlocked workload (a barrier waiter holding the lock a
	// second thread needs) must stop the run with Stalled=true instead of
	// advancing simulated time forever.
	cfg := config.SmallTest()
	cfg.NumCores = 2
	sys, err := BuildSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sched := virt.NewScheduler(cfg.NumCores)
	sched.AddWorkload(smallWorkload("deadlock", 2, 100))
	preseedDeadlock(t, sched)
	sim := NewSimulator(sys, sched, Options{Seed: 1})
	sim.Run()
	if !sim.Stalled {
		t.Fatalf("deadlocked workload should be reported as stalled")
	}
}

// preseedDeadlock drives the scheduler's first round by hand, the way the
// driver does (Record, then one ResolveRound): thread 0 takes lock 1 and
// waits at a barrier for thread 1, which blocks on lock 1. Ops resolve in
// (cycle, thread, program) order, so thread 0's acquire wins.
func preseedDeadlock(t *testing.T, sched *virt.Scheduler) {
	t.Helper()
	t0, t1 := sched.Thread(0), sched.Thread(1)
	asg := sched.ScheduleInterval(0)
	t0.Record(virt.OpLockAcquire, 1, 0, 0)
	t0.Record(virt.OpBarrier, 1, 0, 0)
	t1.Record(virt.OpLockAcquire, 1, 0, 0)
	if next := sched.ResolveRound(asg, 0, 1, nil, nil); len(next) != 0 {
		t.Fatalf("no thread should be left to run, got %+v", next)
	}
	if t0.State != virt.StateBlockedBarrier || t1.State != virt.StateBlockedLock {
		t.Fatalf("states %v/%v, want blocked-barrier/blocked-lock", t0.State, t1.State)
	}
}
