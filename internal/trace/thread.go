package trace

import "zsim/internal/isa"

// Thread is the per-simulated-thread dynamic block generator. It is the
// analogue of an instrumented native thread: the core timing model repeatedly
// calls NextBlock and simulates the returned block.
//
// The DynBlock returned by NextBlock is owned by the Thread
// and reused on the next call; callers must finish consuming it (including
// its Addrs slice) before asking for another block. This mirrors how zsim's
// instrumentation callbacks pass transient per-block state to the timing
// models and keeps block generation allocation-free on the hot path.
type Thread struct {
	w   *Workload
	rng *rand64

	// Work accounting.
	blocksLeft int // blocks remaining in the current phase
	serialLeft int // serial-phase blocks remaining (thread 0 only)
	phase      threadPhase

	// Synchronization pacing.
	sinceLock    int
	csLeft       int // blocks left inside the current critical section
	heldLock     int
	sinceBarrier int
	barrierSeq   int
	sinceSyscall int

	// Address generation.
	privBase  uint64
	stridePtr uint64
	sharedPtr uint64

	// Reused output block.
	out   DynBlock
	addrs [64]uint64

	done bool
}

type threadPhase uint8

const (
	phaseSerial  threadPhase = iota // thread 0 runs the serial portion
	phaseWaitSer                    // other threads wait for the serial portion
	phaseParallel
	phaseDone
)

// NewThread returns the dynamic stream for simulated thread tid of the
// workload. tid must be in [0, w.Threads).
func (w *Workload) NewThread(tid int) *Thread {
	p := w.Params
	perThread := p.BlocksPerThread
	if p.ScaleWork && w.Threads > 0 {
		perThread = p.BlocksPerThread / w.Threads
	}
	if perThread < 1 {
		perThread = 1
	}
	totalWork := perThread * w.Threads
	serialBlocks := int(p.SerialFraction * float64(totalWork))
	parallelPerThread := (totalWork - serialBlocks) / w.Threads
	if parallelPerThread < 1 {
		parallelPerThread = 1
	}

	t := &Thread{
		w:        w,
		rng:      newRand(p.Seed*2654435761 + uint64(tid)*0x9e3779b97f4a7c15 + 1),
		privBase: 0x10_0000_0000 + p.AddrSpace<<44 + uint64(tid)*alignUp(p.WorkingSet+4096, 1<<20),
	}
	t.blocksLeft = parallelPerThread
	if serialBlocks > 0 {
		if tid == 0 {
			t.phase = phaseSerial
			t.serialLeft = serialBlocks
		} else {
			t.phase = phaseWaitSer
		}
	} else {
		t.phase = phaseParallel
	}
	return t
}

func alignUp(v, a uint64) uint64 { return (v + a - 1) / a * a }

// NextBlock returns the next dynamic block for the thread. After the thread's
// work is exhausted it returns a block with Sync == SyncDone (and keeps
// returning it if called again).
func (t *Thread) NextBlock() *DynBlock {
	p := &t.w.Params
	switch t.phase {
	case phaseDone:
		return t.doneBlock()
	case phaseWaitSer:
		// Wait for the serial phase to finish at barrier 0, then start
		// parallel work.
		t.phase = phaseParallel
		return t.syncOnly(SyncBarrier, 0)
	case phaseSerial:
		if t.serialLeft == 0 {
			t.phase = phaseParallel
			return t.syncOnly(SyncBarrier, 0)
		}
		t.serialLeft--
		return t.computeBlock(SyncNone, 0)
	}

	// Critical-section bookkeeping: if inside one, count it down and release.
	// This takes priority over finishing so a thread never terminates while
	// holding a lock.
	if t.csLeft > 0 {
		t.csLeft--
		t.blocksLeft--
		if t.csLeft == 0 {
			return t.computeBlock(SyncLockRelease, t.heldLock)
		}
		return t.computeBlock(SyncNone, 0)
	}

	// Parallel phase.
	if t.blocksLeft <= 0 {
		// Final barrier so all threads end together, then done.
		t.phase = phaseDone
		return t.syncOnly(SyncBarrier, 1)
	}

	// Periodic global barrier.
	if p.BarrierEvery > 0 && t.sinceBarrier >= p.BarrierEvery {
		t.sinceBarrier = 0
		t.barrierSeq++
		return t.syncOnly(SyncBarrier, 1+t.barrierSeq)
	}

	// Periodic blocking syscall.
	if p.BlockedSyscallEvery > 0 && t.sinceSyscall >= p.BlockedSyscallEvery {
		t.sinceSyscall = 0
		b := t.syncOnly(SyncBlocked, 0)
		b.SyncArg = p.BlockedSyscallCycles
		return b
	}

	// Periodic critical section: emit the acquire; the held-section blocks
	// follow on subsequent calls.
	if p.LockEvery > 0 && t.sinceLock >= p.LockEvery {
		t.sinceLock = 0
		t.heldLock = t.rng.intn(p.NumLocks)
		t.csLeft = max(p.LockHoldBlocks, 1)
		return t.lockBlock(SyncLockAcquire, t.heldLock)
	}

	t.sinceLock++
	t.sinceBarrier++
	t.sinceSyscall++
	t.blocksLeft--
	return t.computeBlock(SyncNone, 0)
}

// doneBlock returns the terminal block.
func (t *Thread) doneBlock() *DynBlock {
	t.done = true
	t.out = DynBlock{Sync: SyncDone}
	return &t.out
}

// syncOnly returns a block that carries only a synchronization action (it
// still contains a tiny amount of work: the sync entry sequence).
func (t *Thread) syncOnly(kind SyncKind, id int) *DynBlock {
	// Reuse the spin block's code as the sync entry sequence: a load of the
	// sync variable plus a compare and branch.
	return t.fillLockDyn(t.w.spinBlock(), id%t.w.Params.NumLocks, kind, id)
}

// lockBlock returns the acquire block for lock id.
func (t *Thread) lockBlock(kind SyncKind, lockID int) *DynBlock {
	return t.fillLockDyn(t.w.spinBlock(), lockID, kind, lockID)
}

func (t *Thread) fillLockDyn(d *isa.DecodedBBL, lockID int, kind SyncKind, syncID int) *DynBlock {
	addr := t.w.LockAddr(lockID)
	n := int(d.MemSlots)
	for i := 0; i < n; i++ {
		t.addrs[i] = addr
	}
	t.out = DynBlock{
		Decoded:  d,
		Program:  t.w.prog,
		Addrs:    t.addrs[:n],
		Taken:    true,
		BranchPC: d.Addr + d.Bytes - 2,
		Sync:     kind,
		SyncID:   syncID,
	}
	return &t.out
}

// computeBlock returns an ordinary computation block, optionally tagged with
// a trailing synchronization action (lock release).
func (t *Thread) computeBlock(kind SyncKind, syncID int) *DynBlock {
	p := &t.w.Params
	// Pick a static block with a hot/cold distribution: 80% of executions
	// come from the first eighth of the code footprint, concentrating the
	// instruction working set as real programs do.
	var idx int
	nb := t.w.NumStaticBlocks()
	hot := max(nb/8, 1)
	if t.rng.float() < 0.8 {
		idx = t.rng.intn(hot)
	} else {
		idx = t.rng.intn(nb)
	}
	d := &t.w.prog.Blocks[idx]

	// Generate one address per memory slot.
	nSlots := min(int(d.MemSlots), len(t.addrs))
	for i := 0; i < nSlots; i++ {
		t.addrs[i] = t.genAddr()
	}

	// Branch outcome: per-static-block predictability. Blocks whose ID hashes
	// below BranchRandomFrac have data-dependent (random) branches; the rest
	// are strongly biased (taken except once every 16 executions).
	taken := true
	if d.CondBranch {
		if blockIsRandomBranch(d.ID, p.BranchRandomFrac) {
			taken = t.rng.next()&1 == 0
		} else {
			taken = t.rng.intn(16) != 0
		}
	}

	t.out = DynBlock{
		Decoded:  d,
		Program:  t.w.prog,
		Addrs:    t.addrs[:nSlots],
		Taken:    taken,
		BranchPC: d.Addr + d.Bytes - 2,
		Sync:     kind,
		SyncID:   syncID,
	}
	return &t.out
}

// blockIsRandomBranch deterministically classifies a static block's branch as
// hard to predict with probability frac.
func blockIsRandomBranch(id uint64, frac float64) bool {
	if frac <= 0 {
		return false
	}
	h := id * 0x9e3779b97f4a7c15
	return float64(h>>40)/float64(1<<24) < frac
}

// genAddr produces one data address according to the workload's locality and
// sharing parameters.
func (t *Thread) genAddr() uint64 {
	p := &t.w.Params
	shared := p.SharedFraction > 0 && t.rng.float() < p.SharedFraction && p.SharedWorkingSet > 0
	if shared {
		if p.StridedFraction > 0 && t.rng.float() < p.StridedFraction {
			t.sharedPtr += 64
			if t.sharedPtr >= p.SharedWorkingSet {
				t.sharedPtr = 0
			}
			return t.w.sharedBase + t.sharedPtr
		}
		return t.w.sharedBase + (t.rng.next() % max(p.SharedWorkingSet, 64) &^ 7)
	}
	ws := max(p.WorkingSet, 4096)
	if t.rng.float() < p.StridedFraction {
		t.stridePtr += 8
		if t.stridePtr >= ws {
			t.stridePtr = 0
		}
		return t.privBase + t.stridePtr
	}
	// Irregular accesses have temporal locality: most touch a hot subset of
	// the working set (real pointer-chasing codes re-touch recently used
	// nodes far more often than a uniform draw over the footprint would).
	region := ws
	if t.rng.float() < 0.85 {
		region = max(ws/16, 4096)
	}
	return t.privBase + (t.rng.next()%region)&^7
}
