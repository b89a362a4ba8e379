// Package engine provides the persistent worker pool that runs the bound
// phase of the bound-weave loop (Section 3.2 of the paper): a fixed set of
// worker goroutines, spawned at most once per simulation, that park on
// per-worker channels between rounds and are handed work by the
// orchestrating goroutine.
//
// Workers draw core assignments from a shared atomic counter. Steady-state
// intervals therefore spawn zero goroutines and churn no WaitGroups: the only
// per-round cost is one channel send per woken worker and one Wait on the
// pool's reusable WaitGroup.
package engine

import (
	"runtime"
	"sync"
	"sync/atomic"

	"zsim/internal/runctl"
)

// Pool is a fixed-size set of persistent, parked worker goroutines. A Pool is
// driven by a single orchestrating goroutine: Run hands every woken worker
// the same task function and blocks until all invocations return. Run must
// not be called concurrently with itself or with Close.
type Pool struct {
	size int

	// fn is the task of the in-flight Run. Workers read it after receiving a
	// start token, so the channel send establishes the happens-before edge.
	fn func(worker int)
	wg sync.WaitGroup

	// start carries per-worker wakeups; the channels are unbuffered so a
	// completed Run leaves no stale tokens behind.
	start []chan struct{}

	// panicked holds the first panic recovered in a worker during the
	// in-flight Run. Workers never die from a task panic: the fault is
	// captured (with the panicking goroutine's stack), the worker parks
	// again, and Run re-raises the capture on the orchestrating goroutine
	// once every worker has finished — so a panicking task can neither kill
	// the process outright nor leak a waiting WaitGroup.
	panicked atomic.Pointer[runctl.PanicError]

	quit      chan struct{}
	spawned   bool
	closeOnce sync.Once

	// Telemetry: total Run invocations and total worker wakeups delivered
	// (channel sends on the parallel path; serial fallbacks wake no one).
	// Atomic so telemetry snapshots can read them while a Run is in flight.
	runs  atomic.Uint64
	wakes atomic.Uint64
}

// NewPool creates a pool of n workers (n < 1 is clamped to 1). The worker
// goroutines are spawned lazily on the first parallel Run, so a pool that
// only ever runs serially (GOMAXPROCS=1, single-task phases) costs nothing.
func NewPool(n int) *Pool {
	if n < 1 {
		n = 1
	}
	p := &Pool{size: n, quit: make(chan struct{})}
	p.start = make([]chan struct{}, n)
	for i := range p.start {
		p.start[i] = make(chan struct{})
	}
	return p
}

// Stats returns the pool's lifetime telemetry counters: total Run calls and
// total worker wakeups delivered (parallel-path channel sends). Safe to call
// concurrently with Run.
func (p *Pool) Stats() (runs, wakes uint64) {
	return p.runs.Load(), p.wakes.Load()
}

// Run invokes fn(w) for every worker index w in [0, n) and returns once all
// invocations have finished. n is clamped to the pool size. When effective
// host parallelism is one (n == 1 or GOMAXPROCS == 1) or the pool is closed,
// the invocations run serially on the caller; tasks must therefore not
// depend on running concurrently with each other.
//
// A panic inside fn does not kill the pool: the first recovered panic is
// re-raised on the caller as a *runctl.PanicError carrying the panicking
// worker's stack, after all other workers have finished their invocations.
func (p *Pool) Run(n int, fn func(worker int)) {
	if n > p.size {
		n = p.size
	}
	if n <= 0 {
		return
	}
	p.runs.Add(1)
	if n == 1 || p.Closed() || runtime.GOMAXPROCS(0) == 1 {
		// Same containment contract as the parallel path: every invocation
		// runs, and the first capture is re-raised once all have finished.
		var first *runctl.PanicError
		for w := 0; w < n; w++ {
			if pe := p.invoke(w, fn); pe != nil && first == nil {
				first = pe
			}
		}
		if first != nil {
			panic(first)
		}
		return
	}
	p.ensureWorkers()
	p.fn = fn
	p.wg.Add(n)
	p.wakes.Add(uint64(n))
	for w := 0; w < n; w++ {
		p.start[w] <- struct{}{}
	}
	p.wg.Wait()
	p.fn = nil
	if pe := p.panicked.Swap(nil); pe != nil {
		panic(pe)
	}
}

// invoke runs one task invocation with panic containment, returning the
// capture (nil on clean return). The deferred recover is open-coded by the
// compiler, so the steady-state cost on the hot phase path is nil.
func (p *Pool) invoke(worker int, fn func(worker int)) (pe *runctl.PanicError) {
	defer func() {
		if r := recover(); r != nil {
			pe = runctl.NewPanicError(r, worker)
		}
	}()
	fn(worker)
	return nil
}

// Closed reports whether Close has been called.
func (p *Pool) Closed() bool {
	select {
	case <-p.quit:
		return true
	default:
		return false
	}
}

// Close shuts down the pool's worker goroutines. Close is idempotent and must
// not overlap a Run; a closed pool still accepts Run calls and executes them
// serially on the caller.
func (p *Pool) Close() {
	p.closeOnce.Do(func() { close(p.quit) })
}

// ensureWorkers spawns the persistent workers on first parallel use.
func (p *Pool) ensureWorkers() {
	if p.spawned {
		return
	}
	p.spawned = true
	for i := 0; i < p.size; i++ {
		go p.worker(i)
	}
}

// worker is the persistent goroutine body: park on the start channel, run the
// current task (containing any panic), repeat.
func (p *Pool) worker(id int) {
	for {
		select {
		case <-p.start[id]:
		case <-p.quit:
			return
		}
		if pe := p.invoke(id, p.fn); pe != nil {
			p.panicked.CompareAndSwap(nil, pe)
		}
		p.wg.Done()
	}
}
