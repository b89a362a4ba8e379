// Package engine provides the worker pool that runs the bound phase of the
// bound-weave loop (Section 3.2 of the paper). A pool of n runs invocation 0
// of every Run on the calling goroutine and the others on n-1 worker
// goroutines. The workers are spawned on the first parallel Run and persist
// across Runs until Close stops them; the next parallel Run spawns fresh
// ones. A bound-weave simulator closes its pool when its run returns, so its
// workers live for one simulation run.
//
// A Run publishes the round as one atomic word holding (generation, n) and
// waits for the other invocations on a pending count, yielding with
// runtime.Gosched. A worker that finishes an invocation spins on the round
// word for up to spinWindow (only when GOMAXPROCS > 1) before it parks, so a
// round that follows within the window starts on it with no wakeup at all;
// only a parked worker is woken, with one token on its channel. Close
// publishes a stop round the same way and waits for every worker to exit.
// Steady-state Runs, and restarts after the first spawn, allocate nothing,
// and an idle pool burns no CPU once the window has passed.
package engine

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"zsim/internal/runctl"
)

// spinWindow is how long a worker that found no new round keeps polling the
// round word before it parks.
const spinWindow = 100 * time.Microsecond

// stopRound is the invocation count of the round Close publishes: it
// includes every worker, and each one exits instead of running a task.
const stopRound = math.MaxUint32

// Pool is a fixed-size set of worker goroutines. A Pool is driven by a single
// orchestrating goroutine: Run hands every participating index the same task
// function and returns once all invocations have returned. Run must not be
// called concurrently with itself, Parallelism or Close.
type Pool struct {
	// round is the published round, generation<<32 | n. Workers poll it; it
	// sits on its own cache line, away from the counters workers write.
	_     [64]byte
	round atomic.Uint64
	_     [56]byte
	// pending counts the worker invocations (indices 1..n-1) of the
	// in-flight Run that have not returned yet.
	pending atomic.Int32
	_       [60]byte

	size int
	gen  uint32 // generation of the last published round (caller only)
	// fn is the task of the in-flight Run. Workers read it after loading the
	// round word (or receiving a token), which orders it after the write.
	fn func(worker int)
	// procs is GOMAXPROCS as of the last Parallelism call. Workers spin only
	// when it is above 1, and at 1 every Run takes the serial path.
	procs atomic.Int32
	// slots[w] is worker w's park state; slot 0 belongs to the caller and
	// is unused. The first spawn makes them, and later spawns reuse them:
	// a stopped worker leaves its slot unmarked and its channel empty.
	slots []workerSlot

	// panicked holds the first panic recovered during the in-flight Run.
	// Workers never die from a task panic: the fault is captured (with the
	// panicking goroutine's stack), and Run re-raises the capture on the
	// orchestrating goroutine once every invocation has finished.
	panicked atomic.Pointer[runctl.PanicError]

	// spawned reports whether workers are running; exited counts those that
	// have not returned yet.
	spawned bool
	exited  sync.WaitGroup

	// Telemetry: Run invocations and wakeups of parked workers since the
	// pool was built or last Closed (a worker that picks a round up while
	// spinning costs none; serial Runs wake no one). Atomic so telemetry
	// snapshots can read them while a Run is in flight.
	runs  atomic.Uint64
	wakes atomic.Uint64
}

// workerSlot is one worker's park handshake, padded to a cache line.
type workerSlot struct {
	// parked is 0 while the worker is awake. Before it blocks on wake, the
	// worker stores 1<<32 | the generation it last saw. The caller sends a
	// token only after clearing that mark by CAS, so each token is received
	// once; the generation in the mark keeps a late CAS from waking a worker
	// that already ran the round and parked again.
	parked atomic.Uint64
	wake   chan struct{}
	_      [48]byte
}

// NewPool creates a pool of n workers (n < 1 is clamped to 1). The worker
// goroutines are spawned lazily on the first parallel Run, so a pool that
// only ever runs serially (GOMAXPROCS=1, single-task phases) costs nothing
// beyond its struct.
func NewPool(n int) *Pool {
	p := &Pool{size: max(n, 1)}
	p.Parallelism()
	return p
}

// Parallelism re-reads GOMAXPROCS and returns how many invocations a Run can
// execute at once: min(size, GOMAXPROCS). Run never reads GOMAXPROCS itself
// (the runtime takes its scheduler lock to answer) but uses the value from
// the last Parallelism call, so call this once per batch of Runs; NewPool
// makes the first call.
func (p *Pool) Parallelism() int {
	procs := runtime.GOMAXPROCS(0)
	p.procs.Store(int32(procs))
	return min(p.size, procs)
}

// Stats returns the pool's telemetry counters since it was built or last
// Closed: Run calls and wakeups of parked workers. Safe to call concurrently
// with Run.
func (p *Pool) Stats() (runs, wakes uint64) {
	return p.runs.Load(), p.wakes.Load()
}

// Run invokes fn(w) for every worker index w in [0, n) and returns once all
// invocations have finished. n is clamped to the pool size. Invocation 0
// runs on the caller. When effective host parallelism is one (n == 1 or
// GOMAXPROCS == 1), every invocation runs serially on the caller; tasks must
// therefore not depend on running concurrently with each other.
//
// A panic inside fn does not kill the pool: the first recovered panic is
// re-raised on the caller as a *runctl.PanicError carrying the panicking
// invocation's stack, after all other invocations have finished.
func (p *Pool) Run(n int, fn func(worker int)) {
	if n > p.size {
		n = p.size
	}
	if n <= 0 {
		return
	}
	p.runs.Add(1)
	if n == 1 || p.procs.Load() == 1 {
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
	p.pending.Store(int32(n - 1))
	p.publish(n)
	if pe := p.invoke(0, fn); pe != nil {
		p.panicked.CompareAndSwap(nil, pe)
	}
	// Wait for the stragglers, yielding now and then in case one of them is
	// runnable but has no P.
	for i := 1; p.pending.Load() != 0; i++ {
		if i%64 == 0 {
			runtime.Gosched()
		}
	}
	p.fn = nil
	if pe := p.panicked.Swap(nil); pe != nil {
		panic(pe)
	}
}

// publish starts a round of n invocations (at most the pool size, or
// stopRound): it stores the round word under a new generation and un-parks
// the parked workers the round includes.
func (p *Pool) publish(n int) {
	p.gen++
	p.round.Store(uint64(p.gen)<<32 | uint64(n))
	for w := 1; w < min(n, p.size); w++ {
		s := &p.slots[w]
		if v := s.parked.Load(); v != 0 && uint32(v) != p.gen && s.parked.CompareAndSwap(v, 0) {
			p.wakes.Add(1)
			s.wake <- struct{}{}
		}
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

// Close stops the pool's worker goroutines, spinning or parked, waits for
// them to exit and restarts the Stats counters. It must not overlap a Run.
// The pool stays usable: the next parallel Run spawns fresh workers, which
// start from the current round, so no stopped worker can run a later one.
// Closing a pool whose workers are not running, and restarting them,
// allocate nothing once the first spawn has made the slots.
func (p *Pool) Close() {
	if p.spawned {
		p.publish(stopRound)
		p.exited.Wait()
		p.spawned = false
	}
	p.runs.Store(0)
	p.wakes.Store(0)
}

// spawns hands each new worker goroutine its pool, index and starting
// generation: a go statement that passed them as arguments would allocate a
// closure per worker at every restart, and one with none allocates nothing.
// Any new worker may take any pool's request, and each takes exactly one.
var spawns = make(chan spawn)

type spawn struct {
	p    *Pool
	id   int
	seen uint32
}

func runWorker() {
	s := <-spawns
	s.p.worker(s.id, s.seen)
}

// ensureWorkers spawns workers 1..size-1 if none are running. They start
// from the current generation, so they run only rounds published after it.
func (p *Pool) ensureWorkers() {
	if p.spawned {
		return
	}
	p.spawned = true
	if p.slots == nil {
		p.slots = make([]workerSlot, p.size)
		for i := 1; i < p.size; i++ {
			p.slots[i].wake = make(chan struct{}, 1)
		}
	}
	p.exited.Add(p.size - 1)
	for i := 1; i < p.size; i++ {
		go runWorker()
		spawns <- spawn{p, i, p.gen}
	}
}

// worker is the goroutine body: wait for a round after generation seen that
// includes this worker, run its invocation (containing any panic), repeat
// until Close's stop round.
func (p *Pool) worker(id int, seen uint32) {
	defer p.exited.Done()
	for p.await(id, &seen) != stopRound {
		if pe := p.invoke(id, p.fn); pe != nil {
			p.panicked.CompareAndSwap(nil, pe)
		}
		p.pending.Add(-1)
	}
}

// await waits for the next round that includes worker id and returns its
// invocation count. seen is the generation of the last round the worker
// observed; rounds that do not include it are skipped. The worker first
// spins for up to spinWindow, then parks.
func (p *Pool) await(id int, seen *uint32) uint32 {
	if p.procs.Load() > 1 {
		start := time.Now()
		for i := 1; ; i++ {
			r := p.round.Load()
			if g := uint32(r >> 32); g != *seen {
				*seen = g
				if n := uint32(r); id < int(n) {
					return n
				}
			}
			if i%128 == 0 {
				if time.Since(start) >= spinWindow {
					break
				}
				// Let a runnable goroutine have this P: with more
				// invocations than Ps, a round may be waiting on it.
				runtime.Gosched()
			}
		}
	}
	s := &p.slots[id]
	for {
		// Mark parked, then re-check: a Run that published after the last
		// look either sees the mark and un-parks this worker by CAS (and
		// sends the one token), or is seen here first.
		mark := 1<<32 | uint64(*seen)
		s.parked.Store(mark)
		r := p.round.Load()
		if g := uint32(r >> 32); g != *seen && s.parked.CompareAndSwap(mark, 0) {
			*seen = g
			if n := uint32(r); id < int(n) {
				return n
			}
			continue
		}
		// Parked, or un-parked by the caller with a token on the way. A
		// caller un-parks only a worker its round includes, and publishes
		// no later round before this one finishes.
		<-s.wake
		r = p.round.Load()
		*seen = uint32(r >> 32)
		return uint32(r)
	}
}
