// Package baseline implements the golden reference the paper's validation
// needs but that is not part of zsim itself: a sequential, fully ordered,
// contention-accurate simulator that stands in for the real Westmere machine
// of Section 4.1, so accuracy is reported as error against it. It executes
// one basic block at a time, always advancing the thread with the smallest
// simulated cycle, so memory accesses are interleaved in global
// simulated-time order and contention is applied inline. Synchronization
// goes through the same scheduler path as the bound-weave driver: each
// synchronization block is recorded on its thread and applied by
// virt.Scheduler.ResolveRound.
package baseline

import (
	"container/heap"

	"zsim/internal/boundweave"
	"zsim/internal/config"
	"zsim/internal/stats"
	"zsim/internal/trace"
	"zsim/internal/virt"
)

// GoldenResult summarizes a golden-reference run.
type GoldenResult struct {
	Metrics *stats.Metrics
	System  *boundweave.System
}

// RunGolden executes the workload on a sequential, fully ordered,
// contention-accurate simulation of the configured system and returns its
// metrics. maxInstrs bounds the run (0 = until all threads finish).
func RunGolden(cfg *config.System, w *trace.Workload, maxInstrs uint64) (*GoldenResult, error) {
	// Memory contention in the golden model: the run is fully ordered, so a
	// load-dependent controller applied inline is accurate. Callers that want
	// contention (the validation harness does) set cfg.MemModel = MemMD1; the
	// M/D/1 model is exact here because accesses arrive in global order.
	goldenCfg := *cfg
	goldenCfg.Contention = false
	if goldenCfg.MemModel == "" || goldenCfg.MemModel == config.MemSimple {
		goldenCfg.MemModel = config.MemMD1
	}
	sys, err := boundweave.BuildSystem(&goldenCfg)
	if err != nil {
		return nil, err
	}
	sched := virt.NewScheduler(cfg.NumCores)
	sched.AddWorkload(w)

	runSequential(sys, sched, maxInstrs)

	m := sys.Metrics()
	m.Workload = w.Name
	m.Model = "golden-" + string(cfg.CoreModel)
	m.Finalize()
	return &GoldenResult{Metrics: m, System: sys}, nil
}

// seqItem orders threads by their simulated cycle.
type seqItem struct {
	threadID int
	cycle    uint64
}

type seqPQ []seqItem

func (q seqPQ) Len() int            { return len(q) }
func (q seqPQ) Less(i, j int) bool  { return q[i].cycle < q[j].cycle }
func (q seqPQ) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *seqPQ) Push(x interface{}) { *q = append(*q, x.(seqItem)) }
func (q *seqPQ) Pop() interface{} {
	old := *q
	it := old[len(old)-1]
	*q = old[:len(old)-1]
	return it
}

// runSequential drives all threads one basic block at a time in global
// simulated-cycle order (the defining property of the golden reference).
func runSequential(sys *boundweave.System, sched *virt.Scheduler, maxInstrs uint64) {
	cfg := sys.Cfg
	// Each software thread is pinned to core (threadID mod numCores); the
	// golden model is about ordering, not about scheduling policy.
	var pq seqPQ
	for i := 0; i < sched.NumThreads(); i++ {
		heap.Push(&pq, seqItem{threadID: i, cycle: 0})
	}
	var ran [1]virt.Assignment
	var scratch []virt.Assignment
	var totalInstrs uint64
	for pq.Len() > 0 {
		if maxInstrs > 0 && totalInstrs >= maxInstrs {
			break
		}
		it := heap.Pop(&pq).(seqItem)
		th := sched.Thread(it.threadID)
		if th.State == virt.StateDone {
			continue
		}
		// Threads blocked on a lock or barrier wait for the scheduler to make
		// them runnable (which happens when another thread releases or
		// arrives); they are re-examined a little later in simulated time.
		if th.State == virt.StateBlockedLock || th.State == virt.StateBlockedBarrier {
			heap.Push(&pq, seqItem{threadID: it.threadID, cycle: it.cycle + 100})
			continue
		}
		if th.State == virt.StateBlockedSyscall {
			if it.cycle < th.WakeCycle {
				heap.Push(&pq, seqItem{threadID: it.threadID, cycle: th.WakeCycle})
				continue
			}
			// The syscall is due: an empty round at this cycle wakes it.
			scratch = sched.ResolveRound(nil, it.cycle, it.cycle+1, nil, scratch)
		}
		coreID := it.threadID % cfg.NumCores
		c := sys.Cores[coreID]
		start := max(it.cycle, th.Cycle)
		if start > c.Cycle() {
			c.SetCycle(start)
		}
		before := c.Instrs()
		blk := th.Stream.NextBlock()
		if blk.Sync != trace.SyncDone {
			c.SimulateBlock(blk)
		}
		if blk.Sync != trace.SyncNone {
			th.Record(blk.Sync, blk.SyncID, c.Cycle(), blk.SyncArg)
			ran[0] = virt.Assignment{Core: coreID, Thread: th}
			scratch = sched.ResolveRound(ran[:], c.Cycle(), c.Cycle()+1, nil, scratch)
		}
		totalInstrs += c.Instrs() - before
		// Threads blocked on locks or barriers are requeued at a slightly
		// later cycle so the simulation makes progress while they wait; they
		// only execute again once the scheduler makes them runnable. A
		// released barrier may have advanced the thread past its core.
		requeueCycle := max(c.Cycle(), th.Cycle)
		switch th.State {
		case virt.StateDone:
			continue
		case virt.StateBlockedLock, virt.StateBlockedBarrier:
			requeueCycle += 100
		case virt.StateBlockedSyscall:
			requeueCycle = th.WakeCycle
		}
		heap.Push(&pq, seqItem{threadID: it.threadID, cycle: max(requeueCycle, it.cycle+1)})
	}
}
