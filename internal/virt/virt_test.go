package virt

import (
	"strings"
	"testing"

	"zsim/internal/trace"
)

func testWorkload(threads int, blocks int) *trace.Workload {
	p := trace.DefaultParams()
	p.BlocksPerThread = blocks
	return trace.New("virt-test", p, threads)
}

// holdsLock reports whether the thread currently holds the lock.
func holdsLock(s *Scheduler, t *Thread, lockID int) bool {
	l := s.locks[lockID]
	return l != nil && l.held && l.holder == t.ID
}

func TestThreadStateString(t *testing.T) {
	states := []ThreadState{StateRunnable, StateRunning, StateBlockedLock, StateBlockedBarrier,
		StateBlockedSyscall, StateDone}
	for _, st := range states {
		if st.String() == "" || strings.HasPrefix(st.String(), "state(") {
			t.Fatalf("state %d has no name", st)
		}
	}
	if ThreadState(99).String() != "state(99)" {
		t.Fatalf("unknown state fallback broken")
	}
}

func TestSchedulerBasicAssignment(t *testing.T) {
	s := NewScheduler(4)
	if s.numCores != 4 {
		t.Fatalf("cores: %d", s.numCores)
	}
	w := testWorkload(3, 100)
	s.AddWorkload(w)
	if s.NumThreads() != 3 || s.LiveThreads() != 3 {
		t.Fatalf("threads: %d live %d", s.NumThreads(), s.LiveThreads())
	}
	asg := s.ScheduleIntervalInto(0, nil)
	if len(asg) != 3 {
		t.Fatalf("3 threads on 4 cores should all be scheduled, got %d", len(asg))
	}
	seenCores := map[int]bool{}
	for _, a := range asg {
		if seenCores[a.Core] {
			t.Fatalf("core %d assigned twice", a.Core)
		}
		seenCores[a.Core] = true
		if a.Thread.State != StateRunning {
			t.Fatalf("assigned thread should be running")
		}
	}
	// Next interval: still running, same assignments.
	asg2 := s.ScheduleIntervalInto(1000, nil)
	if len(asg2) != 3 {
		t.Fatalf("running threads should stay scheduled")
	}
}

func TestSchedulerOversubscription(t *testing.T) {
	// 8 software threads on 2 cores: every thread must eventually get CPU
	// time via round-robin descheduling.
	s := NewScheduler(2)
	w := testWorkload(8, 50)
	s.AddWorkload(w)
	ran := make(map[int]int)
	now := uint64(0)
	for interval := 0; interval < 20; interval++ {
		asg := s.ScheduleIntervalInto(now, nil)
		if len(asg) > 2 {
			t.Fatalf("cannot schedule more threads than cores")
		}
		for _, a := range asg {
			ran[a.Thread.ID]++
			// Simulate the thread being descheduled at the end of the interval
			// (time multiplexing).
			s.deschedule(a.Thread, now+1000)
		}
		now += 1000
	}
	if len(ran) != 8 {
		t.Fatalf("all 8 threads should have run, got %d: %v", len(ran), ran)
	}
	if s.Counts().ContextSwitches == 0 {
		t.Fatalf("context switches should be counted")
	}
}

func TestSchedulerAffinity(t *testing.T) {
	s := NewScheduler(4)
	w := testWorkload(2, 10)
	p := &Process{ID: 0, Name: "pinned", Affinity: []int{2}}
	for i := 0; i < 2; i++ {
		p.Threads = append(p.Threads, &Thread{Stream: w.NewThread(i)})
	}
	s.AddProcess(p)
	asg := s.ScheduleIntervalInto(0, nil)
	if len(asg) != 1 {
		t.Fatalf("only one thread fits on the single allowed core, got %d", len(asg))
	}
	if asg[0].Core != 2 {
		t.Fatalf("affinity should pin the thread to core 2, got %d", asg[0].Core)
	}
	// Per-thread affinity overrides the process affinity.
	s2 := NewScheduler(4)
	p2 := &Process{ID: 0, Affinity: []int{0}}
	p2.Threads = append(p2.Threads, &Thread{Stream: w.NewThread(0), Affinity: []int{3}})
	s2.AddProcess(p2)
	asg = s2.ScheduleIntervalInto(0, nil)
	if len(asg) != 1 || asg[0].Core != 3 {
		t.Fatalf("thread affinity should win: %+v", asg)
	}
}

func TestLockBlockingAndHandoff(t *testing.T) {
	s := NewScheduler(4)
	w := testWorkload(2, 10)
	s.AddWorkload(w)
	t0, t1 := s.Thread(0), s.Thread(1)
	s.ScheduleIntervalInto(0, nil)

	s.onLockAcquire(t0, 7, 100)
	if !holdsLock(s, t0, 7) || t0.State != StateRunning {
		t.Fatalf("uncontended lock should be acquired")
	}
	s.onLockAcquire(t1, 7, 150)
	if holdsLock(s, t1, 7) || t1.State != StateBlockedLock {
		t.Fatalf("blocked thread state wrong: %v", t1.State)
	}
	if s.Counts().LockBlocks != 1 {
		t.Fatalf("lock block should be counted")
	}

	// Release at cycle 500: t1 acquires and becomes runnable with its clock
	// advanced to the release point.
	s.onLockRelease(t0, 7, 500)
	if !holdsLock(s, t1, 7) {
		t.Fatalf("waiter should inherit the lock")
	}
	if t1.State != StateRunnable || t1.Cycle != 500 {
		t.Fatalf("woken waiter should be runnable at the release cycle, got %v at %d", t1.State, t1.Cycle)
	}
	// Releasing a lock you don't hold is ignored.
	s.onLockRelease(t0, 7, 600)
	if !holdsLock(s, t1, 7) {
		t.Fatalf("spurious release must not steal the lock")
	}
	// The woken thread gets scheduled again.
	asg := s.ScheduleIntervalInto(1000, nil)
	found := false
	for _, a := range asg {
		if a.Thread.ID == t1.ID {
			found = true
		}
	}
	if !found {
		t.Fatalf("woken thread should be scheduled")
	}
}

func TestBarrierReleasesWhenAllArrive(t *testing.T) {
	s := NewScheduler(4)
	w := testWorkload(3, 10)
	s.AddWorkload(w)
	s.ScheduleIntervalInto(0, nil)
	t0, t1, t2 := s.Thread(0), s.Thread(1), s.Thread(2)

	s.onBarrier(t0, 100)
	s.onBarrier(t1, 300)
	if t0.State != StateBlockedBarrier || t1.State != StateBlockedBarrier {
		t.Fatalf("threads should wait at the barrier")
	}
	s.onBarrier(t2, 200)
	// All three arrived: all runnable, clocks advanced to the slowest (300).
	for _, th := range []*Thread{t0, t1, t2} {
		if th.State != StateRunnable {
			t.Fatalf("barrier should release all threads, %d is %v", th.ID, th.State)
		}
		if th.Cycle != 300 {
			t.Fatalf("released thread should sync to the latest arrival, got %d", th.Cycle)
		}
	}
	if s.Counts().BarrierWaits != 3 {
		t.Fatalf("barrier waits should be counted")
	}
}

func TestBarrierIgnoresFinishedThreads(t *testing.T) {
	s := NewScheduler(2)
	w := testWorkload(2, 10)
	s.AddWorkload(w)
	s.ScheduleIntervalInto(0, nil)
	t0, t1 := s.Thread(0), s.Thread(1)
	// Thread 1 finishes; a barrier must then only require thread 0.
	s.onDone(t1, 50)
	if s.LiveThreads() != 1 {
		t.Fatalf("live threads: %d", s.LiveThreads())
	}
	s.onBarrier(t0, 100)
	if t0.State != StateRunnable {
		t.Fatalf("sole live thread should pass the barrier immediately, got %v", t0.State)
	}
}

func TestDoneReleasesHeldLocks(t *testing.T) {
	s := NewScheduler(2)
	w := testWorkload(2, 10)
	s.AddWorkload(w)
	s.ScheduleIntervalInto(0, nil)
	t0, t1 := s.Thread(0), s.Thread(1)
	s.onLockAcquire(t0, 1, 10)
	s.onLockAcquire(t1, 1, 20) // blocks
	s.onDone(t0, 100)
	if t1.State != StateRunnable || !holdsLock(s, t1, 1) {
		t.Fatalf("finishing holder should hand the lock to the waiter")
	}
}

func TestBlockedSyscallJoinLeave(t *testing.T) {
	s := NewScheduler(2)
	w := testWorkload(2, 10)
	s.AddWorkload(w)
	s.ScheduleIntervalInto(0, nil)
	t0 := s.Thread(0)
	s.onBlockedSyscall(t0, 1000, 5000)
	if t0.State != StateBlockedSyscall {
		t.Fatalf("thread should be blocked in the kernel")
	}
	// Before the wake time it is not scheduled.
	asg := s.ScheduleIntervalInto(2000, nil)
	for _, a := range asg {
		if a.Thread.ID == t0.ID {
			t.Fatalf("blocked thread must not be scheduled")
		}
	}
	// After the wake time it rejoins with its clock advanced.
	asg = s.ScheduleIntervalInto(7000, nil)
	found := false
	for _, a := range asg {
		if a.Thread.ID == t0.ID {
			found = true
		}
	}
	if !found {
		t.Fatalf("thread should rejoin after its syscall completes")
	}
	if t0.Cycle < 6000 {
		t.Fatalf("woken thread's clock should reflect the blocked time, got %d", t0.Cycle)
	}
	if s.Counts().SyscallBlocks != 1 {
		t.Fatalf("syscall blocks should be counted")
	}
}

func TestMultiprocessScheduling(t *testing.T) {
	// Two processes (client and server) share the chip; both get cores.
	s := NewScheduler(4)
	w1 := testWorkload(2, 50)
	w2 := testWorkload(2, 50)
	p1 := s.AddWorkload(w1)
	p2 := &Process{ID: 1, Name: "server"}
	for i := 0; i < 2; i++ {
		p2.Threads = append(p2.Threads, &Thread{Stream: w2.NewThread(i)})
	}
	s.AddProcess(p2)
	if p1.ID == p2.ID {
		t.Fatalf("processes should have distinct IDs")
	}
	asg := s.ScheduleIntervalInto(0, nil)
	procs := map[int]int{}
	for _, a := range asg {
		procs[a.Thread.Proc]++
	}
	if len(procs) != 2 {
		t.Fatalf("both processes should be scheduled: %v", procs)
	}
	// Barriers are per-process: process 0's barrier does not wait for
	// process 1's threads.
	s.onBarrier(s.Thread(0), 10)
	s.onBarrier(s.Thread(1), 20)
	if s.Thread(0).State != StateRunnable {
		t.Fatalf("process-0 barrier should release without process 1")
	}
}

// ---------------------------------------------------------------------------
// Mid-interval scheduler (ResolveRound) tests
// ---------------------------------------------------------------------------

func TestResolveRoundGrantsFreeLockAndResumes(t *testing.T) {
	s := NewScheduler(2)
	s.AddWorkload(testWorkload(2, 10))
	asg := s.ScheduleIntervalInto(0, nil)
	if len(asg) != 2 {
		t.Fatalf("both threads should be scheduled, got %d", len(asg))
	}
	t0 := asg[0].Thread
	t0.Cycle = 150
	t0.Record(trace.SyncLockAcquire, 5, 150, 0)
	next := s.ResolveRound(asg, 0, 1000, nil, nil)
	if !holdsLock(s, t0, 5) {
		t.Fatalf("uncontended acquire should be granted at the round boundary")
	}
	found := false
	for _, a := range next {
		if a.Thread.ID == t0.ID {
			found = true
			if a.Core != asg[0].Core {
				t.Fatalf("granted thread should resume on its own core")
			}
		}
	}
	if !found {
		t.Fatalf("granted thread should be re-assigned within the interval")
	}
	if len(t0.pending) != 0 {
		t.Fatalf("pending ops should be drained by ResolveRound")
	}
}

func TestResolveRoundArbitratesBySimulatedCycle(t *testing.T) {
	// Two threads race for one lock. The thread with the earlier simulated
	// cycle must win, regardless of the order the workers recorded the ops
	// (which in a real run depends on host scheduling).
	s := NewScheduler(2)
	s.AddWorkload(testWorkload(2, 10))
	asg := s.ScheduleIntervalInto(0, nil)
	tA, tB := s.Thread(0), s.Thread(1)
	tA.Cycle = 200
	tA.Record(trace.SyncLockAcquire, 9, 200, 0)
	tB.Cycle = 100
	tB.Record(trace.SyncLockAcquire, 9, 100, 0)
	s.ResolveRound(asg, 0, 1000, nil, nil)
	if !holdsLock(s, tB, 9) {
		t.Fatalf("the earlier acquire (cycle 100) should win the lock")
	}
	if tA.State != StateBlockedLock {
		t.Fatalf("the later acquire should block, got %v", tA.State)
	}
}

func TestResolveRoundMidIntervalLockHandoff(t *testing.T) {
	// The holder releases mid-interval: the blocked waiter rejoins within the
	// same interval on the freed core instead of waiting for the next one.
	s := NewScheduler(2)
	s.AddWorkload(testWorkload(2, 10))
	asg := s.ScheduleIntervalInto(0, nil)
	t0, t1 := s.Thread(0), s.Thread(1)

	t0.Cycle = 10
	t0.Record(trace.SyncLockAcquire, 1, 10, 0)
	t1.Cycle = 20
	t1.Record(trace.SyncLockAcquire, 1, 20, 0)
	round1 := s.ResolveRound(asg, 0, 1000, nil, nil)
	if !holdsLock(s, t0, 1) || t1.State != StateBlockedLock {
		t.Fatalf("t0 should hold the lock, t1 should block")
	}
	if len(round1) != 1 || round1[0].Thread.ID != t0.ID {
		t.Fatalf("only the holder should run the next round, got %+v", round1)
	}

	// t0 releases at cycle 500 and runs to the interval end.
	t0.Record(trace.SyncLockRelease, 1, 500, 0)
	t0.Cycle = 1000
	round2 := s.ResolveRound(round1, 0, 1000, nil, nil)
	if !holdsLock(s, t1, 1) {
		t.Fatalf("waiter should inherit the lock at the release")
	}
	if t1.Cycle != 500 {
		t.Fatalf("woken waiter should inherit the release cycle, got %d", t1.Cycle)
	}
	if len(round2) != 1 || round2[0].Thread.ID != t1.ID {
		t.Fatalf("woken waiter should rejoin within the interval, got %+v", round2)
	}
	if s.Counts().MidIntervalJoins == 0 {
		t.Fatalf("mid-interval join should be counted")
	}
}

func TestResolveRoundSyscallLeaveAndJoin(t *testing.T) {
	// One core, two threads: the running thread blocks in a syscall and the
	// waiting thread takes the core immediately; when the syscall completes
	// inside the interval, the first thread rejoins.
	s := NewScheduler(1)
	s.AddWorkload(testWorkload(2, 10))
	asg := s.ScheduleIntervalInto(0, nil)
	if len(asg) != 1 {
		t.Fatalf("one core fits one thread")
	}
	t0, t1 := s.Thread(0), s.Thread(1)

	t0.Cycle = 100
	t0.Record(trace.SyncBlocked, 0, 100, 300)
	round1 := s.ResolveRound(asg, 0, 1000, nil, nil)
	// The wake (cycle 400) falls inside the interval, so t0 is already
	// runnable again — but queued behind t1, which takes the core first.
	if t0.State != StateRunnable || t0.WakeCycle != 400 {
		t.Fatalf("t0 should be woken for a mid-interval rejoin, got %v at %d", t0.State, t0.WakeCycle)
	}
	if len(round1) != 1 || round1[0].Thread.ID != t1.ID || round1[0].Core != 0 {
		t.Fatalf("waiting thread should take the freed core mid-interval, got %+v", round1)
	}

	// t1 blocks too; t0's syscall has completed by then, so it rejoins.
	t1.Cycle = 450
	t1.Record(trace.SyncBlocked, 0, 450, 5000)
	round2 := s.ResolveRound(round1, 0, 1000, nil, nil)
	if len(round2) != 1 || round2[0].Thread.ID != t0.ID {
		t.Fatalf("t0 should rejoin after its syscall completes, got %+v", round2)
	}
	if t0.Cycle != 400 {
		t.Fatalf("rejoining thread's clock should reflect the wake cycle, got %d", t0.Cycle)
	}
	if s.Counts().SyscallBlocks != 2 {
		t.Fatalf("both syscalls should be counted, got %d", s.Counts().SyscallBlocks)
	}
}

func TestResolveRoundHonoursAffinityOnFreedCores(t *testing.T) {
	s := NewScheduler(2)
	w := testWorkload(3, 10)
	p := &Process{ID: 0}
	p.Threads = append(p.Threads,
		&Thread{Stream: w.NewThread(0)},
		&Thread{Stream: w.NewThread(1)},
		&Thread{Stream: w.NewThread(2), Affinity: []int{0}})
	s.AddProcess(p)
	asg := s.ScheduleIntervalInto(0, nil)
	if len(asg) != 2 {
		t.Fatalf("two cores fit two threads")
	}
	// Core 1's thread blocks; the pinned thread may not take core 1.
	t1 := s.Thread(1)
	t1.Cycle = 50
	t1.Record(trace.SyncBlocked, 0, 50, 100000)
	next := s.ResolveRound(asg, 0, 1000, nil, nil)
	for _, a := range next {
		if a.Thread.ID == 2 {
			t.Fatalf("pinned thread must not be placed on core 1")
		}
	}
	if s.Thread(2).State != StateRunnable {
		t.Fatalf("pinned thread should stay runnable in the queue")
	}
}

func TestResolveRoundRespectsIntervalEnd(t *testing.T) {
	s := NewScheduler(1)
	s.AddWorkload(testWorkload(2, 10))
	asg := s.ScheduleIntervalInto(0, nil)
	t0 := s.Thread(0)
	t0.Cycle = 990
	t0.Record(trace.SyncBlocked, 0, 990, 100000)
	// The core's clock has passed the interval end: no join is possible.
	next := s.ResolveRound(asg, 0, 1000, []uint64{1100}, nil)
	if len(next) != 0 {
		t.Fatalf("no thread can run before the interval ends, got %+v", next)
	}
	if s.Thread(1).State != StateRunnable {
		t.Fatalf("unplaced thread should stay runnable for the next interval")
	}
}

func TestEndIntervalTimeMultiplexes(t *testing.T) {
	s := NewScheduler(2)
	s.AddWorkload(testWorkload(4, 10))
	asg := s.ScheduleIntervalInto(0, nil)
	for _, a := range asg {
		a.Thread.Cycle = 1000
	}
	s.EndInterval(1000)
	for _, a := range asg {
		if a.Thread.State != StateRunnable {
			t.Fatalf("oversubscribed threads should be descheduled at the interval end")
		}
	}
	asg2 := s.ScheduleIntervalInto(1000, nil)
	for _, a := range asg2 {
		if a.Thread.ID != 2 && a.Thread.ID != 3 {
			t.Fatalf("waiting threads should get the cores next interval, got thread %d", a.Thread.ID)
		}
	}
}

func TestRunnableAndLiveCounts(t *testing.T) {
	s := NewScheduler(2)
	s.AddWorkload(testWorkload(3, 10))
	if s.Counts().Runnable != 3 || s.LiveThreads() != 3 {
		t.Fatalf("counts: runnable=%d live=%d", s.Counts().Runnable, s.LiveThreads())
	}
	asg := s.ScheduleIntervalInto(0, nil)
	if s.Counts().Runnable != 1 {
		t.Fatalf("two placed threads leave one runnable, got %d", s.Counts().Runnable)
	}
	s.onDone(asg[0].Thread, 100)
	if s.LiveThreads() != 2 {
		t.Fatalf("done thread should leave the live count, got %d", s.LiveThreads())
	}
	if _, ok := s.NextSyscallWake(); ok {
		t.Fatalf("no syscall-blocked threads yet")
	}
	s.onBlockedSyscall(asg[1].Thread, 200, 500)
	if wake, ok := s.NextSyscallWake(); !ok || wake != 700 {
		t.Fatalf("next wake should be 700, got %d/%v", wake, ok)
	}
}

// TestBarrierSparseProcessIDs covers the per-process live-count table with
// caller-assigned, non-contiguous process IDs: barriers stay per-process and
// release against each process's own live count, including after threads of
// another process finish.
func TestBarrierSparseProcessIDs(t *testing.T) {
	s := NewScheduler(4)
	mk := func(id, threads int) *Process {
		w := testWorkload(threads, 10)
		p := &Process{ID: id, Name: "p"}
		for i := 0; i < threads; i++ {
			p.Threads = append(p.Threads, &Thread{Stream: w.NewThread(i)})
		}
		s.AddProcess(p)
		return p
	}
	pa := mk(3, 2) // sparse IDs: 3 and 9
	pb := mk(9, 2)
	s.ScheduleIntervalInto(0, nil)

	// Process 9's first thread finishes; its barrier then needs only one
	// arrival, while process 3 still needs both of its threads.
	s.onDone(pb.Threads[0], 10)
	s.onBarrier(pa.Threads[0], 100)
	if pa.Threads[0].State != StateBlockedBarrier {
		t.Fatalf("process 3 barrier must wait for its second thread")
	}
	s.onBarrier(pb.Threads[1], 200)
	if pb.Threads[1].State != StateRunnable {
		t.Fatalf("process 9's sole live thread should pass its barrier")
	}
	s.onBarrier(pa.Threads[1], 300)
	if pa.Threads[0].State != StateRunnable || pa.Threads[0].Cycle != 300 {
		t.Fatalf("process 3 barrier should release both threads at cycle 300")
	}
}
