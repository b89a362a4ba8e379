// Package virt implements the scheduling half of the paper's user-level
// virtualization layer (Section 3.3): the machinery that lets multiprocess
// applications, programs with more threads than cores, and client-server
// programs that block in the kernel run on a user-level simulator.
//
// It provides:
//
//   - a simulated process/thread model with a round-robin scheduler that
//     supports per-process and per-thread core affinities and thread
//     oversubscription (more software threads than simulated cores);
//   - synchronization state (locks, workload barriers) resolved against
//     simulated time, so lock contention and barrier waits shape the
//     simulated schedule exactly as futexes shape a native run;
//   - blocking-syscall handling: threads that enter a blocking system call
//     leave the interval barrier and rejoin when the call completes, so the
//     rest of the simulation keeps advancing (the paper's join/leave
//     mechanism).
//
// # One entry path, one owner
//
// A Scheduler belongs to one goroutine and takes no locks. A synchronization
// operation reaches it one way: whoever executes the thread records it
// thread-locally (Thread.Record), and the owner applies every recorded
// operation in ResolveRound, sorted by (cycle, thread ID, program order).
// The bound-weave driver calls ResolveRound after each round of bound
// execution — its pool workers touch only their own threads' pending lists,
// and the driver enters the scheduler only between rounds — and the
// sequential golden model calls it after each synchronization block. A
// thread that blocks on a lock or syscall therefore frees its core *within*
// the interval, and ResolveRound immediately pulls the next runnable thread
// onto the freed core (the paper's join/leave applied inside the interval,
// not just at its edges). Because every scheduling decision depends only on
// simulated state, schedules are reproducible for a fixed seed regardless of
// GOMAXPROCS or host thread count.
package virt

import (
	"fmt"
	"slices"

	"zsim/internal/trace"
)

// ThreadState is the scheduling state of a simulated software thread.
type ThreadState uint8

// Thread states.
const (
	StateRunnable ThreadState = iota
	StateRunning
	StateBlockedLock
	StateBlockedBarrier
	StateBlockedSyscall
	StateDone
)

// String returns a short name for the state.
func (s ThreadState) String() string {
	switch s {
	case StateRunnable:
		return "runnable"
	case StateRunning:
		return "running"
	case StateBlockedLock:
		return "blocked-lock"
	case StateBlockedBarrier:
		return "blocked-barrier"
	case StateBlockedSyscall:
		return "blocked-syscall"
	case StateDone:
		return "done"
	default:
		return fmt.Sprintf("state(%d)", uint8(s))
	}
}

// OpKind identifies a synchronization operation recorded by a bound worker.
type OpKind uint8

// Synchronization operation kinds, in the order the trace emits them.
const (
	OpNone OpKind = iota
	// OpDone marks the thread's stream as finished.
	OpDone
	// OpBarrier is an arrival at workload barrier ID.
	OpBarrier
	// OpSyscall enters a blocking system call for Arg cycles.
	OpSyscall
	// OpLockAcquire attempts to acquire lock ID; the thread pauses until the
	// round's arbitration grants or blocks it.
	OpLockAcquire
	// OpLockRelease releases lock ID; the thread keeps executing.
	OpLockRelease
)

// PendingOp is one synchronization operation recorded during a bound round,
// to be resolved deterministically at the next round boundary.
type PendingOp struct {
	Kind  OpKind
	ID    int    // lock or barrier identifier
	Cycle uint64 // simulated cycle the operation occurred at
	Arg   uint64 // extra operand (blocking-syscall duration)
}

// Thread is one simulated software thread: an instruction stream plus
// scheduling state. Threads belong to a Process.
type Thread struct {
	ID     int
	Proc   int
	Stream *trace.Thread
	State  ThreadState
	// Affinity restricts the cores this thread may run on (nil/empty = any).
	Affinity []int
	// Cycle is the thread's virtual time: the cycle of the core it last ran
	// on when it was descheduled (or blocked).
	Cycle uint64
	// WakeCycle is when a syscall-blocked thread becomes runnable again.
	WakeCycle uint64
	// WaitLock is the lock the thread is blocked on (when StateBlockedLock).
	WaitLock int

	// Core is the per-core run slot the thread currently occupies (-1 when
	// not placed). It makes descheduling O(1) instead of a slot scan.
	Core int

	// queued marks run-queue membership, so enqueue is O(1).
	queued bool

	// pending holds the synchronization operations recorded by whoever
	// executes this thread during the current round. It is written only by
	// that executor and drained by ResolveRound at the round boundary.
	pending []PendingOp
}

// Record appends a synchronization operation observed by the executor of
// this thread. It touches only thread-local state, so bound workers may call
// it concurrently for different threads; the scheduler applies it in the
// next ResolveRound that lists the thread.
func (t *Thread) Record(kind OpKind, id int, cycle, arg uint64) {
	t.pending = append(t.pending, PendingOp{Kind: kind, ID: id, Cycle: cycle, Arg: arg})
}

// Process is a simulated OS process: a group of threads that share workload
// barriers. Multiprocess workloads (e.g. client-server) create several.
type Process struct {
	ID      int
	Name    string
	Threads []*Thread
	// Affinity restricts all of the process's threads to a set of cores.
	Affinity []int
}

// Scheduler is the user-level scheduler: it assigns runnable threads to
// simulated cores (round-robin, affinity-aware), tracks synchronization
// state, and implements the blocking-syscall join/leave protocol — both at
// interval boundaries (ScheduleIntervalInto) and inside intervals
// (ResolveRound).
//
// A Scheduler has a single owner: its methods must not run concurrently with
// each other. Only Thread.Record may run alongside them, one caller per
// thread, for threads the owner is not operating on.
type Scheduler struct {
	numCores int
	procs    []*Process
	threads  []*Thread

	// runQueue holds runnable thread IDs in round-robin order;
	// Thread.queued gives O(1) membership.
	runQueue []int

	// running[i] is the per-core run slot: the thread ID running on core i,
	// or -1.
	running []int

	// locks is the futex table, keyed by lock ID; barriers holds each
	// process's open workload barrier, keyed by process ID.
	locks    map[int]*lockState
	barriers map[int]*barrierState

	// counts holds the statistics counters and the live/runnable gauges, so
	// the driver's idle/fast-forward checks never rescan the thread table.
	counts SchedCounts
	// procLive[p] counts process p's live (not Done) threads, maintained by
	// setState. checkBarriers reads it instead of scanning the whole thread
	// table on every barrier arrival and thread exit, which barrier-heavy
	// thousand-thread runs do thousands of times per interval.
	procLive []int

	// wakeQ is a min-heap of (wake cycle, thread ID) over syscall-blocked
	// threads, so waking and peeking are O(log blocked) instead of an
	// O(threads) table scan per round (blocking-heavy 1,024-core runs do
	// thousands of such scans per interval). Entries are validated against
	// the thread's current state at pop time.
	wakeQ []wakeEntry

	// Reusable scratch.
	ops       []pendingRef
	freeCores []freeCore
	wakeScr   []int
	barScr    []int
}

type lockState struct {
	held    bool
	holder  int
	waiters []int // thread IDs in (deterministic) arrival order
}

type barrierState struct {
	arrived  []int
	maxCycle uint64
}

// pendingRef pairs a recorded operation with its thread for global ordering.
type pendingRef struct {
	t   *Thread
	op  PendingOp
	seq int
}

// cmpPending orders operations by (cycle, thread ID, program order): the
// deterministic arbitration order of a round.
func cmpPending(a, b pendingRef) int {
	switch {
	case a.op.Cycle != b.op.Cycle:
		if a.op.Cycle < b.op.Cycle {
			return -1
		}
		return 1
	case a.t.ID != b.t.ID:
		return a.t.ID - b.t.ID
	default:
		return a.seq - b.seq
	}
}

// freeCore is a schedulable core slot ordered by (cycle, id), so joining
// threads land on the least-advanced core first.
type freeCore struct {
	cycle uint64
	core  int
}

// wakeEntry is one syscall-blocked thread in the wake min-heap, ordered by
// (cycle, tid) for determinism.
type wakeEntry struct {
	cycle uint64
	tid   int32
}

func wakeLess(a, b wakeEntry) bool {
	if a.cycle != b.cycle {
		return a.cycle < b.cycle
	}
	return a.tid < b.tid
}

// pushWake inserts a thread into the wake heap.
func (s *Scheduler) pushWake(tid int, cycle uint64) {
	q := append(s.wakeQ, wakeEntry{cycle: cycle, tid: int32(tid)})
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !wakeLess(q[i], q[p]) {
			break
		}
		q[p], q[i] = q[i], q[p]
		i = p
	}
	s.wakeQ = q
}

// popWakeMin removes and returns the heap minimum. Caller checks emptiness.
func (s *Scheduler) popWakeMin() wakeEntry {
	q := s.wakeQ
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q = q[:n]
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && wakeLess(q[r], q[l]) {
			m = r
		}
		if !wakeLess(q[m], q[i]) {
			break
		}
		q[i], q[m] = q[m], q[i]
		i = m
	}
	s.wakeQ = q
	return top
}

// wakeStale reports whether a heap entry no longer describes a live
// syscall-block (defensive: no state transition currently invalidates an
// entry without popping it).
func (s *Scheduler) wakeStale(e wakeEntry) bool {
	t := s.threads[e.tid]
	return t.State != StateBlockedSyscall || t.WakeCycle != e.cycle
}

// drainWakeQ pops every entry whose wake cycle satisfies the predicate
// bound (strict selects cycle < bound, otherwise cycle <= bound) into the
// reusable scratch, sorted by thread ID — the same order the previous
// thread-table scan woke threads in, so schedules are unchanged.
func (s *Scheduler) drainWakeQ(bound uint64, strict bool) []int {
	ids := s.wakeScr[:0]
	for len(s.wakeQ) > 0 {
		top := s.wakeQ[0]
		if s.wakeStale(top) {
			s.popWakeMin()
			continue
		}
		if strict {
			if top.cycle >= bound {
				break
			}
		} else if top.cycle > bound {
			break
		}
		s.popWakeMin()
		ids = append(ids, int(top.tid))
	}
	slices.Sort(ids)
	s.wakeScr = ids
	return ids
}

// NewScheduler creates a scheduler for a chip with numCores cores.
func NewScheduler(numCores int) *Scheduler {
	if numCores < 1 {
		numCores = 1
	}
	s := &Scheduler{
		numCores: numCores,
		running:  make([]int, numCores),
		locks:    make(map[int]*lockState),
		barriers: make(map[int]*barrierState),
	}
	s.Reset()
	return s
}

// Reset restores the scheduler to its just-constructed (empty) state for
// warm-simulator reuse: all processes, threads, synchronization state and
// statistics are dropped while every slice and map keeps its capacity, so
// re-adding the same workloads allocates (almost) nothing.
func (s *Scheduler) Reset() {
	s.procs = s.procs[:0]
	s.threads = s.threads[:0]
	s.runQueue = s.runQueue[:0]
	for i := range s.running {
		s.running[i] = -1
	}
	clear(s.locks)
	clear(s.barriers)
	s.counts = SchedCounts{}
	s.procLive = s.procLive[:0]
	s.wakeQ = s.wakeQ[:0]
	s.ops = s.ops[:0]
	s.freeCores = s.freeCores[:0]
	s.wakeScr = s.wakeScr[:0]
	s.barScr = s.barScr[:0]
}

// AddProcess registers a process and its threads. Threads inherit the
// process's affinity unless they have their own.
func (s *Scheduler) AddProcess(p *Process) {
	s.procs = append(s.procs, p)
	for p.ID >= 0 && len(s.procLive) <= p.ID {
		s.procLive = append(s.procLive, 0)
	}
	for _, t := range p.Threads {
		if len(t.Affinity) == 0 {
			t.Affinity = p.Affinity
		}
		t.ID = len(s.threads)
		t.Proc = p.ID
		t.Core = -1
		s.threads = append(s.threads, t)
		s.counts.Live++
		if p.ID >= 0 {
			s.procLive[p.ID]++
		}
		t.State = StateRunnable
		s.counts.Runnable++
		s.enqueue(t.ID)
	}
}

// AddWorkload is a convenience that wraps a trace.Workload's threads into a
// single process with no affinity restrictions.
func (s *Scheduler) AddWorkload(w *trace.Workload) *Process {
	p := &Process{ID: len(s.procs), Name: w.Name}
	for i := 0; i < w.Threads; i++ {
		p.Threads = append(p.Threads, &Thread{Stream: w.NewThread(i)})
	}
	s.AddProcess(p)
	return p
}

// Thread returns the thread with the given ID.
func (s *Scheduler) Thread(id int) *Thread { return s.threads[id] }

// NumThreads returns the total number of software threads.
func (s *Scheduler) NumThreads() int { return len(s.threads) }

// LiveThreads returns the number of threads that are not Done (a counter;
// no thread-table scan).
func (s *Scheduler) LiveThreads() int { return s.counts.Live }

// NumRunnable returns the number of runnable threads.
func (s *Scheduler) NumRunnable() int { return s.counts.Runnable }

// SchedCounts is a snapshot of the scheduler's statistics counters and
// thread-population gauges.
type SchedCounts struct {
	// Live counts threads that are not Done, Runnable those ready to run.
	Live     int
	Runnable int
	// ContextSwitches counts thread-to-core placements.
	ContextSwitches uint64
	// MidIntervalJoins counts threads pulled onto a core inside an interval
	// (after another thread blocked on a lock or syscall) instead of waiting
	// for the next interval barrier.
	MidIntervalJoins uint64
	// LockBlocks, BarrierWaits and SyscallBlocks count the synchronization
	// events resolved against simulated time.
	LockBlocks    uint64
	BarrierWaits  uint64
	SyscallBlocks uint64
}

// Counts snapshots the scheduler's counters.
func (s *Scheduler) Counts() SchedCounts { return s.counts }

// setState transitions a thread's state, maintaining the runnable and live
// counters.
func (s *Scheduler) setState(t *Thread, st ThreadState) {
	if t.State == st {
		return
	}
	if t.State == StateRunnable {
		s.counts.Runnable--
	}
	if st == StateRunnable {
		s.counts.Runnable++
	}
	if st == StateDone {
		s.counts.Live--
		if t.Proc >= 0 && t.Proc < len(s.procLive) {
			s.procLive[t.Proc]--
		}
	}
	t.State = st
}

// enqueue appends a thread to the run queue if it is not already a member.
func (s *Scheduler) enqueue(tid int) {
	if t := s.threads[tid]; !t.queued {
		t.queued = true
		s.runQueue = append(s.runQueue, tid)
	}
}

// allowedOn reports whether thread t may run on the given core.
func allowedOn(t *Thread, core int) bool {
	if len(t.Affinity) == 0 {
		return true
	}
	for _, c := range t.Affinity {
		if c == core {
			return true
		}
	}
	return false
}

// Assignment maps one core to the thread it runs this interval.
type Assignment struct {
	Core   int
	Thread *Thread
}

// ScheduleIntervalInto assigns runnable threads to cores for the next
// interval and appends the assignments to out, a reusable buffer, so the
// steady-state interval loop performs no allocation. Threads already running
// stay on their core unless they blocked; free cores pull from the run queue
// round-robin, honouring affinities. Oversubscribed threads take turns across
// intervals.
func (s *Scheduler) ScheduleIntervalInto(now uint64, out []Assignment) []Assignment {
	// Wake syscall-blocked threads whose time has come.
	s.wake(now)

	// Threads still marked running keep their cores; everything else vacates
	// its slot.
	nFree := 0
	for c := 0; c < s.numCores; c++ {
		tid := s.running[c]
		if tid >= 0 {
			t := s.threads[tid]
			if t.State == StateRunning {
				continue
			}
			s.running[c] = -1
			if t.Core == c {
				t.Core = -1
			}
		}
		nFree++
	}

	// Fill free cores from the run queue (round-robin, affinity-aware,
	// lowest-numbered allowed core first). The queue is compacted in place:
	// placed and no-longer-runnable entries drop out, the rest keep order.
	if nFree > 0 {
		q := s.runQueue
		w := 0
		for _, tid := range q {
			t := s.threads[tid]
			if t.State != StateRunnable {
				t.queued = false
				continue
			}
			core := -1
			if nFree > 0 {
				for c := 0; c < s.numCores; c++ {
					if s.running[c] < 0 && allowedOn(t, c) {
						core = c
						break
					}
				}
			}
			if core < 0 {
				q[w] = tid
				w++
				continue
			}
			s.place(t, core)
			nFree--
		}
		s.runQueue = q[:w]
	}

	// Emit the interval's assignments in core order.
	out = out[:0]
	for c := 0; c < s.numCores; c++ {
		if tid := s.running[c]; tid >= 0 && s.threads[tid].State == StateRunning {
			out = append(out, Assignment{Core: c, Thread: s.threads[tid]})
		}
	}
	return out
}

// place puts a runnable thread onto a free core slot; the caller removes it
// from the run queue.
func (s *Scheduler) place(t *Thread, core int) {
	s.running[core] = t.ID
	t.Core = core
	t.queued = false
	s.setState(t, StateRunning)
	s.counts.ContextSwitches++
}

// ResolveRound is the mid-interval scheduler and the only way a recorded
// synchronization operation takes effect. Called after every round of
// execution with the round's assignments, it (1) resolves the operations the
// ran threads recorded, in deterministic (cycle, thread, program-order)
// order; (2) wakes syscall-blocked threads
// whose wake time falls inside the interval so they rejoin without waiting
// for the next barrier; and (3) computes the next round's assignments:
// threads that paused for lock arbitration and were granted resume on their
// cores, and freed cores immediately pull runnable threads from the queue
// (the join/leave scheduler applied inside the interval). coreCycle[i] is
// core i's current clock (nil treats every core as being at now). The
// returned slice is empty once nothing can make progress before intervalEnd.
func (s *Scheduler) ResolveRound(ran []Assignment, now, intervalEnd uint64, coreCycle []uint64, out []Assignment) []Assignment {
	// 1. Gather and arbitrate the round's operations deterministically.
	s.ops = s.ops[:0]
	for _, a := range ran {
		for i := range a.Thread.pending {
			s.ops = append(s.ops, pendingRef{t: a.Thread, op: a.Thread.pending[i], seq: i})
		}
	}
	slices.SortFunc(s.ops, cmpPending)
	for _, r := range s.ops {
		t, op := r.t, r.op
		switch op.Kind {
		case OpDone:
			s.onDone(t, op.Cycle)
		case OpBarrier:
			s.onBarrier(t, op.Cycle)
		case OpSyscall:
			s.onBlockedSyscall(t, op.Cycle, op.Arg)
		case OpLockAcquire:
			// Granted acquires leave the thread Running on its core, so it
			// resumes below; contended ones block it and free the core.
			s.onLockAcquire(t, op.ID, op.Cycle)
		case OpLockRelease:
			s.onLockRelease(t, op.ID, op.Cycle)
		}
	}
	for _, a := range ran {
		a.Thread.pending = a.Thread.pending[:0]
	}

	// 2. Mid-interval syscall joins: wake threads whose syscall completes
	// inside this interval; they become placeable immediately. The wake heap
	// makes this O(woken log blocked) instead of an O(threads) scan.
	for _, tid := range s.drainWakeQ(intervalEnd, true) {
		t := s.threads[tid]
		s.setState(t, StateRunnable)
		if t.Cycle < t.WakeCycle {
			t.Cycle = t.WakeCycle
		}
		s.enqueue(t.ID)
	}

	// 3a. Threads still running with time left resume on their cores
	// (granted lock acquires). Threads that reached intervalEnd keep their
	// slot but are not re-run.
	out = out[:0]
	for c := 0; c < s.numCores; c++ {
		if tid := s.running[c]; tid >= 0 {
			t := s.threads[tid]
			if t.State == StateRunning && t.Cycle < intervalEnd {
				out = append(out, Assignment{Core: c, Thread: t})
			}
		}
	}

	// 3b. Freed cores that can still execute part of the interval pull
	// runnable threads, least-advanced core first.
	s.freeCores = s.freeCores[:0]
	for c := 0; c < s.numCores; c++ {
		if s.running[c] >= 0 {
			continue
		}
		cyc := now
		if coreCycle != nil && coreCycle[c] > cyc {
			cyc = coreCycle[c]
		}
		if cyc >= intervalEnd {
			continue
		}
		// Insertion keeps (cycle, id) order; the list is small.
		i := len(s.freeCores)
		s.freeCores = append(s.freeCores, freeCore{cycle: cyc, core: c})
		for i > 0 && s.freeCores[i-1].cycle > cyc {
			s.freeCores[i-1], s.freeCores[i] = s.freeCores[i], s.freeCores[i-1]
			i--
		}
	}
	if len(s.freeCores) > 0 {
		q := s.runQueue
		w := 0
		for _, tid := range q {
			t := s.threads[tid]
			if t.State != StateRunnable {
				t.queued = false
				continue
			}
			if len(s.freeCores) == 0 || t.Cycle >= intervalEnd {
				q[w] = tid
				w++
				continue
			}
			placed := false
			for i, fc := range s.freeCores {
				if !allowedOn(t, fc.core) {
					continue
				}
				start := fc.cycle
				if t.Cycle > start {
					start = t.Cycle
				}
				if start >= intervalEnd {
					continue
				}
				s.place(t, fc.core)
				s.counts.MidIntervalJoins++
				out = append(out, Assignment{Core: fc.core, Thread: t})
				s.freeCores = append(s.freeCores[:i], s.freeCores[i+1:]...)
				placed = true
				break
			}
			if !placed {
				q[w] = tid
				w++
			}
		}
		s.runQueue = q[:w]
	}
	return out
}

// EndInterval applies end-of-interval time multiplexing: when there are more
// live software threads than cores, threads that completed the interval are
// descheduled (back of the run queue) so waiting threads get cores next
// interval.
func (s *Scheduler) EndInterval(now uint64) {
	if s.counts.Live <= s.numCores {
		return
	}
	for c := 0; c < s.numCores; c++ {
		tid := s.running[c]
		if tid < 0 {
			continue
		}
		if t := s.threads[tid]; t.State == StateRunning {
			// t.Cycle is where the thread's last block actually ended — it
			// may overshoot the interval end, and that overshoot must be
			// kept or the cycles would be simulated again next placement.
			s.deschedule(t, t.Cycle)
		}
	}
}

// NextSyscallWake returns the earliest wake cycle over all syscall-blocked
// threads, or ok=false when no thread is blocked in a syscall. The driver
// uses it to fast-forward idle intervals directly to the next join instead
// of stepping empty intervals one by one. With the wake heap this is an O(1)
// peek (plus lazy removal of stale entries).
func (s *Scheduler) NextSyscallWake() (cycle uint64, ok bool) {
	for len(s.wakeQ) > 0 {
		top := s.wakeQ[0]
		if s.wakeStale(top) {
			s.popWakeMin()
			continue
		}
		return top.cycle, true
	}
	return 0, false
}

// wake transitions syscall-blocked threads whose wake time has passed back
// to runnable. Wakeable threads come from the wake heap (drained in
// thread-ID order, matching the table scan this replaces).
func (s *Scheduler) wake(now uint64) {
	for _, tid := range s.drainWakeQ(now, false) {
		t := s.threads[tid]
		s.setState(t, StateRunnable)
		if t.Cycle < t.WakeCycle {
			t.Cycle = t.WakeCycle
		}
		s.enqueue(t.ID)
	}
}

// deschedule removes a thread from its core (it keeps its runnable state and
// goes to the back of the run queue) — used for time multiplexing when there
// are more threads than cores.
func (s *Scheduler) deschedule(t *Thread, now uint64) {
	t.Cycle = now
	if t.State == StateRunning {
		s.setState(t, StateRunnable)
		s.enqueue(t.ID)
	}
	s.clearCore(t)
}

// clearCore vacates the thread's run slot (O(1) via Thread.Core).
func (s *Scheduler) clearCore(t *Thread) {
	if t.Core >= 0 && t.Core < len(s.running) && s.running[t.Core] == t.ID {
		s.running[t.Core] = -1
	}
	t.Core = -1
}

// onDone marks a thread as finished.
func (s *Scheduler) onDone(t *Thread, now uint64) {
	t.Cycle = now
	s.setState(t, StateDone)
	s.clearCore(t)
	// A finishing thread behaves like a lock holder that never returns;
	// release anything it held (defensive: well-formed workloads release
	// before finishing). Held locks are collected and released in ascending
	// ID order — map iteration order must not leak into the schedule.
	var held []int
	for id, l := range s.locks {
		if l.held && l.holder == t.ID {
			held = append(held, id)
		}
	}
	slices.Sort(held)
	for _, id := range held {
		s.releaseLock(s.locks[id], now)
	}
	// Barriers it participated in must not wait for it.
	s.checkBarriers()
}

// onLockAcquire acquires the lock for the thread at the given cycle if it is
// free; otherwise the thread is blocked (futex-style) and will be made
// runnable when the lock is handed to it.
func (s *Scheduler) onLockAcquire(t *Thread, lockID int, now uint64) {
	l := s.locks[lockID]
	if l == nil {
		l = &lockState{}
		s.locks[lockID] = l
	}
	if !l.held {
		l.held = true
		l.holder = t.ID
		return
	}
	l.waiters = append(l.waiters, t.ID)
	s.counts.LockBlocks++
	s.setState(t, StateBlockedLock)
	t.WaitLock = lockID
	t.Cycle = now
	s.clearCore(t)
}

// onLockRelease releases the lock at the given cycle, handing it to the
// oldest waiter (which inherits the release cycle if it is later than its
// own). Releasing a lock the thread does not hold is ignored.
func (s *Scheduler) onLockRelease(t *Thread, lockID int, now uint64) {
	if l := s.locks[lockID]; l != nil && l.held && l.holder == t.ID {
		s.releaseLock(l, now)
	}
}

func (s *Scheduler) releaseLock(l *lockState, now uint64) {
	l.held = false
	if len(l.waiters) == 0 {
		return
	}
	next := l.waiters[0]
	// Compact in place so the slice keeps its capacity (popping via
	// waiters[1:] would leak capacity and re-allocate forever).
	copy(l.waiters, l.waiters[1:])
	l.waiters = l.waiters[:len(l.waiters)-1]
	l.held = true
	l.holder = next
	nt := s.threads[next]
	s.setState(nt, StateRunnable)
	if nt.Cycle < now {
		nt.Cycle = now
	}
	s.enqueue(next)
}

// onBarrier records the thread's arrival at a workload barrier. Barriers are
// arrival-matched per process: any barrier ID pairs up. When every live
// thread of the process has arrived, all are released with their cycles
// advanced to the latest arrival.
func (s *Scheduler) onBarrier(t *Thread, now uint64) {
	b := s.barriers[t.Proc]
	if b == nil {
		b = &barrierState{}
		s.barriers[t.Proc] = b
	}
	b.arrived = append(b.arrived, t.ID)
	if now > b.maxCycle {
		b.maxCycle = now
	}
	s.setState(t, StateBlockedBarrier)
	t.Cycle = now
	s.counts.BarrierWaits++
	s.clearCore(t)
	s.checkBarriers()
}

// checkBarriers releases any barrier at which every live thread of the
// process has arrived. Barriers are visited in ascending process order so
// the release order (and thus the run queue) is deterministic. The live
// count comes from the per-process counter setState maintains, so a release
// check is O(arrived) instead of an O(threads) table scan.
func (s *Scheduler) checkBarriers() {
	procs := s.barScr[:0]
	for proc := range s.barriers {
		procs = append(procs, proc)
	}
	slices.Sort(procs)
	for _, proc := range procs {
		b := s.barriers[proc]
		live := 0
		if proc >= 0 && proc < len(s.procLive) {
			live = s.procLive[proc]
		} else {
			// Out-of-range (e.g. negative caller-assigned) process IDs have no
			// counter: count the process's live threads.
			for _, t := range s.threads {
				if t.Proc == proc && t.State != StateDone {
					live++
				}
			}
		}
		if live == 0 || len(b.arrived) < live {
			continue
		}
		for _, tid := range b.arrived {
			t := s.threads[tid]
			if t.State != StateBlockedBarrier {
				continue
			}
			s.setState(t, StateRunnable)
			if t.Cycle < b.maxCycle {
				t.Cycle = b.maxCycle
			}
			s.enqueue(tid)
		}
		delete(s.barriers, proc)
	}
	s.barScr = procs[:0]
}

// onBlockedSyscall marks the thread as blocked in the kernel for the given
// number of cycles; it leaves the interval barrier and rejoins when the
// syscall completes.
func (s *Scheduler) onBlockedSyscall(t *Thread, now, durationCycles uint64) {
	s.setState(t, StateBlockedSyscall)
	t.Cycle = now
	t.WakeCycle = now + durationCycles
	s.pushWake(t.ID, t.WakeCycle)
	s.counts.SyscallBlocks++
	s.clearCore(t)
}
