package engine

import (
	"math/rand/v2"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"zsim/internal/runctl"
)

// parallelProcs raises GOMAXPROCS to at least 2 for the rest of the test, so
// a pool built after it takes the parallel path (spinning, parking, tokens)
// even on a one-CPU host.
func parallelProcs(t *testing.T) {
	t.Helper()
	if old := runtime.GOMAXPROCS(0); old < 2 {
		runtime.GOMAXPROCS(2)
		t.Cleanup(func() { runtime.GOMAXPROCS(old) })
	}
}

// settleGoroutines waits until no more than base goroutines remain. A worker
// that Close has waited for is past its last statement, but the runtime
// counts it until its exit finishes, so the count may lag briefly.
func settleGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Close, want %d", runtime.NumGoroutine(), base)
		}
		runtime.Gosched()
	}
}

func TestPoolRunsAllTasks(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	var seen [4]atomic.Bool
	var calls atomic.Int64
	p.Run(4, func(w int) {
		seen[w].Store(true)
		calls.Add(1)
	})
	if calls.Load() != 4 {
		t.Fatalf("expected 4 invocations, got %d", calls.Load())
	}
	for i := range seen {
		if !seen[i].Load() {
			t.Fatalf("worker %d never ran", i)
		}
	}
}

func TestPoolReusableAcrossRuns(t *testing.T) {
	p := NewPool(3)
	defer p.Close()
	var total atomic.Int64
	for iter := 0; iter < 50; iter++ {
		p.Run(3, func(w int) { total.Add(1) })
	}
	if total.Load() != 150 {
		t.Fatalf("expected 150 invocations, got %d", total.Load())
	}
}

func TestPoolClampsToSize(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	var calls atomic.Int64
	p.Run(10, func(w int) {
		if w >= 2 {
			t.Errorf("worker index %d out of range", w)
		}
		calls.Add(1)
	})
	if calls.Load() != 2 {
		t.Fatalf("expected 2 invocations, got %d", calls.Load())
	}
	p.Run(0, func(w int) { t.Error("n=0 must not run") })
}

// TestPoolCloseRestarts checks the pool's lifecycle: Close stops the workers
// and restarts the counters, Close on a pool that never went parallel
// allocates nothing, a Run after Close spawns fresh workers that run every
// index exactly once, and once the first spawn has made the worker slots a
// stop-and-restart cycle allocates nothing.
func TestPoolCloseRestarts(t *testing.T) {
	parallelProcs(t)
	base := runtime.NumGoroutine()
	p := NewPool(4)
	if allocs := testing.AllocsPerRun(10, p.Close); allocs != 0 {
		t.Fatalf("closing an idle pool allocated %v times", allocs)
	}
	for round := 0; round < 3; round++ {
		var counts [4]atomic.Int32
		p.Run(4, func(w int) { counts[w].Add(1) })
		for w := range counts {
			if got := counts[w].Load(); got != 1 {
				t.Fatalf("round %d: index %d ran %d times, want 1", round, w, got)
			}
		}
		if runs, _ := p.Stats(); runs != 1 {
			t.Fatalf("round %d: Stats counted %d runs since the last Close, want 1", round, runs)
		}
		p.Close()
		if runs, wakes := p.Stats(); runs != 0 || wakes != 0 {
			t.Fatalf("Close left counters at %d runs, %d wakes", runs, wakes)
		}
		settleGoroutines(t, base)
	}
	p.Close() // idempotent

	// AllocsPerRun would measure at GOMAXPROCS=1, where Run never spawns.
	const cycles = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range cycles {
		p.Run(4, func(int) {})
		p.Close()
	}
	runtime.ReadMemStats(&after)
	if per := float64(after.Mallocs-before.Mallocs) / cycles; per > 0.5 {
		t.Fatalf("a stop-and-restart cycle allocated %.2f times", per)
	}
}

func TestPoolSerialWhenSingleTask(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	ran := false
	// n == 1 runs inline on the caller: mutating local state without
	// synchronization is safe.
	p.Run(1, func(w int) { ran = w == 0 })
	if !ran {
		t.Fatalf("single-task run should execute inline as worker 0")
	}
}

func TestPoolSteadyStateAllocs(t *testing.T) {
	if runtime.GOMAXPROCS(0) == 1 {
		t.Skip("parallel path needs GOMAXPROCS > 1")
	}
	p := NewPool(4)
	defer p.Close()
	var sink atomic.Int64
	task := func(w int) { sink.Add(int64(w)) }
	p.Run(4, task) // spawn workers
	allocs := testing.AllocsPerRun(50, func() { p.Run(4, task) })
	if allocs != 0 {
		t.Fatalf("steady-state Run should not allocate, got %v allocs/run", allocs)
	}
}

// TestPoolWorkerPanicContained checks the fault-containment contract: a
// panicking task neither kills the worker goroutines nor deadlocks Run. The
// capture is re-raised on the orchestrator as a *runctl.PanicError with the
// worker's stack, and the pool stays fully usable afterwards.
func TestPoolWorkerPanicContained(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	var survivors atomic.Int64

	recovered := func(n int, fn func(w int)) (pe *runctl.PanicError) {
		defer func() {
			if r := recover(); r != nil {
				var ok bool
				if pe, ok = r.(*runctl.PanicError); !ok {
					t.Fatalf("re-raised value should be *runctl.PanicError, got %T", r)
				}
			}
		}()
		p.Run(n, fn)
		return nil
	}

	pe := recovered(4, func(w int) {
		if w == 2 {
			panic("task fault")
		}
		survivors.Add(1)
	})
	if pe == nil {
		t.Fatalf("panic should be re-raised to the Run caller")
	}
	if pe.Value != "task fault" {
		t.Fatalf("capture lost the panic value: %+v", pe.Value)
	}
	if survivors.Load() != 3 {
		t.Fatalf("non-panicking invocations should all finish, got %d", survivors.Load())
	}
	if len(pe.Stack) == 0 {
		t.Fatalf("capture should carry the panicking goroutine's stack")
	}

	// The pool must be reusable: every worker survived the fault.
	survivors.Store(0)
	p.Run(4, func(w int) { survivors.Add(1) })
	if survivors.Load() != 4 {
		t.Fatalf("pool should stay fully usable after a contained panic, got %d workers", survivors.Load())
	}

	// Serial path (n == 1) contains panics the same way.
	pe = recovered(1, func(w int) { panic("serial fault") })
	if pe == nil || pe.Value != "serial fault" || pe.Worker != 0 {
		t.Fatalf("serial Run should wrap panics identically, got %+v", pe)
	}
}

// TestPoolProtocolStress drives 10,000 Runs with n drawn from 1..size,
// alternating back-to-back rounds (workers still spinning) with gaps longer
// than the spin window (workers parked, or parking as the round arrives).
// After every Run each index below n must have run exactly once and no index
// at or above n at all: a worker that lags a round must neither run a later
// round twice nor read a stale n.
func TestPoolProtocolStress(t *testing.T) {
	parallelProcs(t)
	const size, runs = 4, 10000
	p := NewPool(size)
	defer p.Close()
	var counts [size]atomic.Int32
	task := func(w int) { counts[w].Add(1) }
	rng := rand.New(rand.NewPCG(1, 2))
	spun := 0 // parallel Runs that woke no parked worker
	for r := 0; r < runs; r++ {
		n := 1 + rng.IntN(size)
		_, wakes0 := p.Stats()
		p.Run(n, task)
		if _, wakes := p.Stats(); n > 1 && wakes == wakes0 {
			spun++
		}
		for w := range counts {
			want := int32(0)
			if w < n {
				want = 1
			}
			if got := counts[w].Swap(0); got != want {
				t.Fatalf("run %d (n=%d): index %d ran %d times, want %d", r, n, w, got, want)
			}
		}
		if r%2 == 1 {
			// Busy-wait rather than sleep: timer sleeps round up to a
			// millisecond on some hosts. Gaps of one to three windows find
			// workers parked, and some still parking.
			gap := spinWindow + time.Duration(rng.Int64N(int64(2*spinWindow)))
			for t0 := time.Now(); time.Since(t0) < gap; {
				runtime.Gosched()
			}
		}
	}
	if _, wakes := p.Stats(); wakes == 0 || spun == 0 {
		t.Fatalf("both paths must be used: %d wakes of parked workers, %d Runs served by spinning workers", wakes, spun)
	}
}

// TestPoolCloseStopsWorkers checks that Close ends every worker goroutine,
// whether it is still spinning after a round or already parked.
func TestPoolCloseStopsWorkers(t *testing.T) {
	parallelProcs(t)
	for _, c := range []struct {
		name string
		gap  time.Duration
	}{{"spinning", 0}, {"parked", 2 * spinWindow}} {
		t.Run(c.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			p := NewPool(4)
			p.Run(4, func(int) {})
			time.Sleep(c.gap)
			p.Close()
			settleGoroutines(t, base)
		})
	}
}

// TestPoolRestartStress alternates bursts of parallel Runs with Close, many
// times: workers of every generation must run each index below n exactly
// once per round, and none of a stopped generation may run a later round
// (which shows as a miscount, a race or a hang).
func TestPoolRestartStress(t *testing.T) {
	parallelProcs(t)
	const size = 4
	cycles := 500
	if testing.Short() {
		cycles = 100
	}
	base := runtime.NumGoroutine()
	p := NewPool(size)
	var counts [size]atomic.Int32
	task := func(w int) { counts[w].Add(1) }
	rng := rand.New(rand.NewPCG(3, 4))
	for c := 0; c < cycles; c++ {
		for r := rng.IntN(8); r >= 0; r-- {
			n := 1 + rng.IntN(size)
			p.Run(n, task)
			for w := range counts {
				want := int32(0)
				if w < n {
					want = 1
				}
				if got := counts[w].Swap(0); got != want {
					t.Fatalf("cycle %d (n=%d): index %d ran %d times, want %d", c, n, w, got, want)
				}
			}
		}
		if c%3 == 2 {
			// Let the workers park before some of the Closes.
			time.Sleep(2 * spinWindow)
		}
		p.Close()
		settleGoroutines(t, base)
	}
}

// TestPoolCallerPanicContained covers invocation 0, which runs on the
// caller: its panic is captured like a worker's, Run re-raises it only after
// the other invocations have finished, and the pool stays usable.
func TestPoolCallerPanicContained(t *testing.T) {
	parallelProcs(t)
	p := NewPool(4)
	defer p.Close()
	var finished atomic.Int64
	pe := func() (pe *runctl.PanicError) {
		defer func() {
			if r := recover(); r != nil {
				var ok bool
				if pe, ok = r.(*runctl.PanicError); !ok {
					t.Fatalf("re-raised value should be *runctl.PanicError, got %T", r)
				}
			}
		}()
		p.Run(4, func(w int) {
			if w == 0 {
				panic("caller fault")
			}
			time.Sleep(time.Millisecond)
			finished.Add(1)
		})
		return nil
	}()
	if pe == nil || pe.Value != "caller fault" || pe.Worker != 0 {
		t.Fatalf("invocation 0's panic should be re-raised as worker 0's, got %+v", pe)
	}
	if !strings.Contains(string(pe.Stack), "TestPoolCallerPanicContained") {
		t.Fatalf("capture should carry the caller's stack, got:\n%s", pe.Stack)
	}
	if finished.Load() != 3 {
		t.Fatalf("Run re-raised before the other invocations finished: %d of 3 done", finished.Load())
	}
	finished.Store(0)
	p.Run(4, func(int) { finished.Add(1) })
	if finished.Load() != 4 {
		t.Fatalf("pool should stay usable after a caller panic, got %d invocations", finished.Load())
	}
}
