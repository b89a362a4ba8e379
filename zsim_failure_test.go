package zsim

// Facade-level failure matrix: every abnormal-stop path must return partial
// metrics plus a typed *RunError, release the simulator's resources, and
// leave the process reusable (a fresh simulation runs cleanly afterwards).

import (
	"context"
	"errors"
	"testing"
	"time"

	"zsim/internal/trace"
	"zsim/internal/virt"
)

// endlessFacadeSim builds a facade simulator whose workload never finishes on
// its own.
func endlessFacadeSim(t *testing.T, mutate func(*Config)) *Simulator {
	t.Helper()
	cfg := SmallConfig()
	cfg.NumCores = 2
	if mutate != nil {
		mutate(cfg)
	}
	sim, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	params := DefaultWorkloadParams()
	params.BlocksPerThread = 1 << 30
	sim.AddWorkload("endless", params, cfg.NumCores)
	sim.SetHostThreads(2)
	return sim
}

// expectRunError asserts the run failed with the given reason and that the
// partial result is present and consistent on both return paths.
func expectRunError(t *testing.T, res *Result, err error, want FailureReason) *RunError {
	t.Helper()
	var re *RunError
	if !errors.As(err, &re) {
		t.Fatalf("want *RunError, got %v (%T)", err, err)
	}
	if re.Reason != want {
		t.Fatalf("reason = %v, want %v", re.Reason, want)
	}
	if res == nil || re.Partial != res {
		t.Fatalf("partial result must be returned directly and via RunError.Partial")
	}
	if res.Metrics == nil {
		t.Fatalf("partial result should carry metrics")
	}
	return re
}

// reusableAfterFailure runs a fresh simulation to completion, proving the
// failure left the process (pools, engines, goroutines) healthy.
func reusableAfterFailure(t *testing.T) {
	t.Helper()
	sim, err := New(SmallConfig())
	if err != nil {
		t.Fatalf("New after failure: %v", err)
	}
	params := DefaultWorkloadParams()
	params.BlocksPerThread = 100
	sim.AddWorkload("after-failure", params, 2)
	sim.SetHostThreads(2)
	res, err := sim.Run()
	if err != nil {
		t.Fatalf("follow-up run should be clean, got %v", err)
	}
	if res.Metrics.Instrs == 0 {
		t.Fatalf("follow-up run did no work")
	}
}

func TestRunContextCancelledMidRun(t *testing.T) {
	sim := endlessFacadeSim(t, nil)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	res, err := sim.RunContext(ctx)
	re := expectRunError(t, res, err, Cancelled)
	if res.Metrics.Instrs == 0 || res.Intervals == 0 {
		t.Fatalf("cancelled run should report partial progress: %+v", res.Metrics)
	}
	if re.Interval == 0 || re.Cycle == 0 {
		t.Fatalf("RunError should locate the stop point: %+v", re)
	}
	reusableAfterFailure(t)
}

func TestRunWallTimeExceeded(t *testing.T) {
	sim := endlessFacadeSim(t, func(cfg *Config) { cfg.MaxWallTime = 25 * time.Millisecond })
	start := time.Now()
	res, err := sim.Run()
	expectRunError(t, res, err, DeadlineExceeded)
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("watchdog stop took %v", elapsed)
	}
	if res.Metrics.Instrs == 0 {
		t.Fatalf("overrun run should keep partial metrics")
	}
	reusableAfterFailure(t)
}

func TestRunCycleLimitHit(t *testing.T) {
	sim := endlessFacadeSim(t, func(cfg *Config) { cfg.MaxCycles = 20_000 })
	res, err := sim.Run()
	re := expectRunError(t, res, err, CycleLimit)
	if re.Cycle < 20_000 {
		t.Fatalf("run stopped before the cycle limit: %d", re.Cycle)
	}
	if res.Metrics.Instrs == 0 {
		t.Fatalf("cycle-limited run should keep partial metrics")
	}
	reusableAfterFailure(t)
}

func TestRunDeadlockReturnsTypedError(t *testing.T) {
	cfg := SmallConfig()
	cfg.NumCores = 2
	sim, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	params := DefaultWorkloadParams()
	params.BlocksPerThread = 100
	sim.AddWorkload("deadlock", params, 2)
	// Pre-seed a genuine deadlock in the scheduler the way the driver feeds
	// it (Record, then one ResolveRound): thread 0 takes lock 1 and waits at
	// a barrier, holding the lock thread 1 then blocks on.
	t0, t1 := sim.sched.Thread(0), sim.sched.Thread(1)
	asg := sim.sched.ScheduleIntervalInto(0, nil)
	t0.Record(trace.SyncLockAcquire, 1, 0, 0)
	t0.Record(trace.SyncBarrier, 1, 0, 0)
	t1.Record(trace.SyncLockAcquire, 1, 0, 0)
	sim.sched.ResolveRound(asg, 0, 1, nil, nil)
	if t0.State != virt.StateBlockedBarrier || t1.State != virt.StateBlockedLock {
		t.Fatalf("states %v/%v, want blocked-barrier/blocked-lock", t0.State, t1.State)
	}
	res, err := sim.Run()
	expectRunError(t, res, err, Deadlocked)
	reusableAfterFailure(t)
}

// panicAccessObserver panics after n observed accesses, from inside a
// bound-phase worker.
type panicAccessObserver struct{ countdown int }

func (p *panicAccessObserver) ObserveAccess(lineAddr uint64, write bool, coreID int, cycle uint64) {
	p.countdown--
	if p.countdown <= 0 {
		panic("injected facade fault")
	}
}

func TestRunWorkerPanicIsolated(t *testing.T) {
	sim := endlessFacadeSim(t, nil)
	sim.sys.Cores[0].SetObserver(&panicAccessObserver{countdown: 200})
	res, err := sim.Run() // must return a structured error, not crash
	re := expectRunError(t, res, err, Panicked)
	if re.Panic != "injected facade fault" {
		t.Fatalf("panic value lost: %q", re.Panic)
	}
	if len(re.Stack) == 0 {
		t.Fatalf("panicked RunError should carry the worker stack")
	}
	if re.Phase != "bound" {
		t.Fatalf("fault phase = %q, want bound", re.Phase)
	}
	reusableAfterFailure(t)
}

// TestRunContextCleanRunNoError pins the happy path: an uncancelled context
// changes nothing, and reaching MaxInstructions is a completion, not a
// failure.
func TestRunContextCleanRunNoError(t *testing.T) {
	sim := endlessFacadeSim(t, nil)
	sim.SetMaxInstructions(50_000)
	res, err := sim.RunContext(context.Background())
	if err != nil {
		t.Fatalf("clean run returned %v", err)
	}
	if res.Metrics.Instrs < 50_000 {
		t.Fatalf("run should reach its instruction budget, got %d", res.Metrics.Instrs)
	}
}
