package boundweave

// The failure matrix of the robustness layer: every abnormal-stop path —
// caller cancellation, wall-time watchdog, cycle limit, deadlock, worker
// panic — must stop the run at a clean boundary, report the right typed
// reason, keep partial statistics valid, and leave the process fully
// reusable for the next simulation.

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"zsim/internal/config"
	"zsim/internal/runctl"
	"zsim/internal/trace"
	"zsim/internal/virt"
)

// endlessSim builds a small simulator whose workload never finishes on its
// own, so only the robustness layer can stop it.
func endlessSim(t *testing.T, opts Options) *Simulator {
	t.Helper()
	cfg := config.SmallTest()
	cfg.NumCores = 2
	sys, err := BuildSystem(cfg)
	if err != nil {
		t.Fatalf("BuildSystem: %v", err)
	}
	p := trace.DefaultParams()
	p.BlocksPerThread = 1 << 30
	sched := virt.NewScheduler(cfg.NumCores)
	sched.AddWorkload(trace.New("endless", p, cfg.NumCores))
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	if opts.HostThreads == 0 {
		opts.HostThreads = 1
	}
	return NewSimulator(sys, sched, opts)
}

// runAnother proves the process is reusable after a failure: a fresh
// simulation must still run to completion cleanly.
func runAnother(t *testing.T) {
	t.Helper()
	cfg := config.SmallTest()
	sys, err := BuildSystem(cfg)
	if err != nil {
		t.Fatalf("BuildSystem after failure: %v", err)
	}
	p := trace.DefaultParams()
	p.BlocksPerThread = 50
	sched := virt.NewScheduler(cfg.NumCores)
	sched.AddWorkload(trace.New("after", p, cfg.NumCores))
	sim := NewSimulator(sys, sched, Options{HostThreads: 2, Seed: 2})
	if n := sim.Run(); n == 0 {
		t.Fatalf("follow-up run after a failure did no work")
	}
	if sim.Reason != runctl.ReasonNone {
		t.Fatalf("follow-up run should be clean, got %v", sim.Reason)
	}
}

func TestRunCancelledMidRun(t *testing.T) {
	ctl := new(runctl.Token)
	sim := endlessSim(t, Options{Ctl: ctl})
	go func() {
		for sim.instrsTotal.Load() == 0 { // let it make some progress first
			time.Sleep(100 * time.Microsecond)
		}
		ctl.Cancel(runctl.ReasonCancelled)
	}()
	done := make(chan uint64, 1)
	go func() { done <- sim.Run() }()
	select {
	case n := <-done:
		if n == 0 {
			t.Fatalf("cancelled run should report partial instructions")
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("cancellation did not stop the run")
	}
	if sim.Reason != runctl.ReasonCancelled {
		t.Fatalf("reason = %v, want cancelled", sim.Reason)
	}
	if sim.Intervals == 0 || sim.Sys.Metrics().Instrs == 0 {
		t.Fatalf("partial metrics should survive cancellation")
	}
	runAnother(t)
}

func TestRunWallTimeWatchdog(t *testing.T) {
	sim := endlessSim(t, Options{MaxWallTime: 20 * time.Millisecond})
	start := time.Now()
	sim.Run()
	elapsed := time.Since(start)
	if sim.Reason != runctl.ReasonDeadline {
		t.Fatalf("reason = %v, want deadline-exceeded", sim.Reason)
	}
	if elapsed > 10*time.Second {
		t.Fatalf("watchdog stop took %v", elapsed)
	}
	if sim.Sys.Metrics().Instrs == 0 {
		t.Fatalf("overrun run should keep partial metrics")
	}
	runAnother(t)
}

func TestRunCycleLimit(t *testing.T) {
	sim := endlessSim(t, Options{MaxCycles: 10_000})
	sim.Run()
	if sim.Reason != runctl.ReasonCycleLimit {
		t.Fatalf("reason = %v, want cycle-limit", sim.Reason)
	}
	// The limit is enforced at the interval boundary, so the overshoot is at
	// most one interval plus one syscall fast-forward.
	if sim.GlobalCycle() < 10_000 {
		t.Fatalf("run stopped before the cycle limit: %d", sim.GlobalCycle())
	}
	runAnother(t)
}

func TestRunDeadlockedReason(t *testing.T) {
	// Same construction as TestStalledWorkloadTerminates: a barrier waiter
	// holds the lock a second thread needs.
	cfg := config.SmallTest()
	cfg.NumCores = 2
	sys, err := BuildSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sched := virt.NewScheduler(cfg.NumCores)
	sched.AddWorkload(smallWorkload("deadlock-reason", 2, 100))
	preseedDeadlock(t, sched)
	sim := NewSimulator(sys, sched, Options{Seed: 1})
	sim.Run()
	if sim.Reason != runctl.ReasonDeadlocked {
		t.Fatalf("reason = %v, want deadlocked", sim.Reason)
	}
	runAnother(t)
}

// panicObserver trips a panic on the Nth observed access, from inside a
// bound-phase pool worker's core simulation.
type panicObserver struct{ countdown int }

func (p *panicObserver) ObserveAccess(lineAddr uint64, write bool, coreID int, cycle uint64) {
	p.countdown--
	if p.countdown <= 0 {
		panic("injected model fault")
	}
}

func TestRunWorkerPanicRecovered(t *testing.T) {
	sim := endlessSim(t, Options{HostThreads: 2, MaxWallTime: time.Minute})
	sim.Sys.Cores[0].SetObserver(&panicObserver{countdown: 500})
	done := make(chan struct{})
	go func() {
		defer close(done)
		sim.Run() // must return, not crash the process
	}()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatalf("panicking worker hung the run")
	}
	if sim.Reason != runctl.ReasonPanicked {
		t.Fatalf("reason = %v, want panicked", sim.Reason)
	}
	if sim.PanicErr == nil || sim.PanicErr.Value != "injected model fault" {
		t.Fatalf("panic capture missing or wrong: %+v", sim.PanicErr)
	}
	if len(sim.PanicErr.Stack) == 0 {
		t.Fatalf("panic capture should carry a stack")
	}
	if sim.FailPhase != "bound" {
		t.Fatalf("fault phase = %q, want bound", sim.FailPhase)
	}
	runAnother(t)
}

// panicMemModel is a memctrl.ContentionModel that trips a panic on the Nth
// request, from inside the weave engine's event execution.
type panicMemModel struct{ countdown int }

func (p *panicMemModel) RequestLatency(lineAddr, cycle uint64, write bool) uint64 {
	p.countdown--
	if p.countdown <= 0 {
		panic("injected weave model fault")
	}
	return 100
}
func (p *panicMemModel) Reset() {}

// TestRunWeavePanicRecovered extends the failure matrix to the weave phase: a
// panic inside event execution (a poisoned memory-controller contention
// model) unwinds the driver goroutine into Run's recover, which types it,
// keeps its stack, attributes it to the weave phase, and leaves the process
// able to run another simulation.
func TestRunWeavePanicRecovered(t *testing.T) {
	cfg := config.SmallTest()
	cfg.NumCores = 4
	cfg.Contention = true
	sys, err := BuildSystem(cfg)
	if err != nil {
		t.Fatalf("BuildSystem: %v", err)
	}
	p := trace.DefaultParams()
	p.BlocksPerThread = 1 << 30 // endless: only the fault can stop it
	sched := virt.NewScheduler(cfg.NumCores)
	sched.AddWorkload(trace.New("weave-fault", p, cfg.NumCores))
	sim := NewSimulator(sys, sched, Options{HostThreads: 2, Seed: 3, MaxWallTime: time.Minute})
	// Poison the memory controller's contention model: after a few hundred
	// weave requests it panics mid-interval.
	sys.comps[0] = memModel{&panicMemModel{countdown: 300}}

	sim.Run() // must return, not crash the process
	if sim.Reason != runctl.ReasonPanicked {
		t.Fatalf("reason = %v, want panicked", sim.Reason)
	}
	if sim.PanicErr == nil || sim.PanicErr.Value != "injected weave model fault" || len(sim.PanicErr.Stack) == 0 {
		t.Fatalf("panic capture missing or wrong: %+v", sim.PanicErr)
	}
	if sim.FailPhase != "weave" {
		t.Fatalf("fault phase = %q, want weave", sim.FailPhase)
	}
	runAnother(t)
}

// poolWorkers counts the goroutines running an engine pool worker.
func poolWorkers() int {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return strings.Count(string(buf[:n]), "engine.(*Pool).worker(")
		}
		buf = make([]byte, 2*len(buf))
	}
}

// TestLifecycleNoWorkerOutlivesRun runs the bound phase on two workers and
// stops the run every way it can stop: to completion, by cancellation, by
// the wall-time watchdog and by a worker panic. However it stopped, no pool
// worker is left once Run has returned.
func TestLifecycleNoWorkerOutlivesRun(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	for _, c := range []struct {
		name   string
		reason runctl.Reason
		opts   Options
		setup  func(*Simulator)
	}{
		{"clean", runctl.ReasonNone, Options{MaxInstrs: 50_000}, nil},
		{"cancelled", runctl.ReasonCancelled, Options{}, func(sim *Simulator) {
			go func() {
				for sim.instrsTotal.Load() < 20_000 {
					time.Sleep(100 * time.Microsecond)
				}
				sim.ctl.Cancel(runctl.ReasonCancelled)
			}()
		}},
		{"deadline", runctl.ReasonDeadline, Options{MaxWallTime: 20 * time.Millisecond}, nil},
		{"panicked", runctl.ReasonPanicked, Options{}, func(sim *Simulator) {
			sim.Sys.Cores[1].SetObserver(&panicObserver{countdown: 2000})
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			base := poolWorkers()
			opts := c.opts
			opts.HostThreads = 2
			sim := endlessSim(t, opts)
			if c.setup != nil {
				c.setup(sim)
			}
			sim.Run()
			if sim.Reason != c.reason {
				t.Fatalf("reason = %v, want %v", sim.Reason, c.reason)
			}
			if sim.workers != 2 {
				t.Fatalf("the run used %d bound workers, want 2", sim.workers)
			}
			deadline := time.Now().Add(5 * time.Second)
			for n := poolWorkers(); n > base; n = poolWorkers() {
				if time.Now().After(deadline) {
					t.Fatalf("%d pool workers outlived Run", n-base)
				}
				runtime.Gosched()
			}
		})
	}
}
