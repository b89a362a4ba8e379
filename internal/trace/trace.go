// Package trace generates the dynamic instruction streams that drive the
// simulator. It is the substitute for Pin-based dynamic binary translation of
// native benchmark binaries: each Workload is a deterministic, seeded program
// model that produces per-thread streams of dynamic basic blocks (static
// blocks from package isa plus resolved memory addresses, branch outcomes,
// and synchronization actions).
//
// Workloads are parameterized along the behavioural axes that determine the
// paper's results: memory intensity and working-set size (cache MPKIs),
// instruction-level parallelism and operation mix (IPC), branch
// predictability (frontend stalls), data sharing and critical sections
// (coherence traffic, path-altering interference, multithreaded speedup), and
// serial fractions (Amdahl limits). The registry in workloads.go maps the
// benchmark names used in the paper's figures (SPEC CPU2006, PARSEC,
// SPLASH-2, SPEC OMP2001, STREAM) to parameter sets that reproduce each
// benchmark's published behavioural envelope.
package trace

import (
	"fmt"
	"iter"

	"zsim/internal/arena"
	"zsim/internal/isa"
)

// SyncKind describes a synchronization action attached to a dynamic block.
// The execution driver (package boundweave / virt) resolves these against
// simulated time, which is what makes lock contention, barriers, and blocking
// system calls affect the simulated schedule exactly as they would in an
// execution-driven simulation of a real binary.
type SyncKind uint8

const (
	// SyncNone means the block is ordinary computation.
	SyncNone SyncKind = iota
	// SyncLockAcquire means the thread attempts to acquire lock SyncID before
	// the block's work proceeds; if the lock is held the thread spins in
	// simulated time (the generator keeps issuing spin blocks).
	SyncLockAcquire
	// SyncLockRelease releases lock SyncID after the block executes.
	SyncLockRelease
	// SyncBarrier makes the thread wait at workload barrier SyncID until all
	// live threads of the workload arrive.
	SyncBarrier
	// SyncBlocked indicates a blocking system call (futex wait, sleep,
	// network receive): the thread leaves the interval barrier for SyncArg
	// simulated cycles (Section 3.3 of the paper).
	SyncBlocked
	// SyncDone means the thread has finished its work.
	SyncDone
)

// String returns a short name for the sync kind.
func (k SyncKind) String() string {
	switch k {
	case SyncNone:
		return "none"
	case SyncLockAcquire:
		return "lock-acquire"
	case SyncLockRelease:
		return "lock-release"
	case SyncBarrier:
		return "barrier"
	case SyncBlocked:
		return "blocked"
	case SyncDone:
		return "done"
	default:
		return fmt.Sprintf("sync(%d)", uint8(k))
	}
}

// DynBlock is one dynamic execution of a static basic block: the decoded
// block and the program it belongs to, the memory address for each
// memory-operand slot, the outcome of the terminating conditional branch (if
// any), and an optional synchronization action. DynBlocks are produced by
// Thread.NextBlock and consumed by the core timing models, which slice the
// block's µops and timing template from Program.
type DynBlock struct {
	Decoded *isa.DecodedBBL
	Program *isa.Program
	// Addrs holds the effective (byte) address for each memory-operand slot
	// of the decoded block, indexed by Uop.MemSlot.
	Addrs []uint64
	// Taken is the outcome of the block-ending conditional branch; it is only
	// meaningful if Decoded.CondBranch is true.
	Taken bool
	// BranchPC is the address of the block-ending branch (used to index the
	// branch predictor).
	BranchPC uint64
	// Sync describes the synchronization action attached to this block.
	Sync SyncKind
	// SyncID identifies the lock or barrier for lock/barrier actions.
	SyncID int
	// SyncArg carries extra data for SyncBlocked (cycles to remain blocked).
	SyncArg uint64
}

// Params are the behavioural parameters of a workload. The zero value is not
// useful; use the registry in workloads.go or DefaultParams as a starting
// point.
type Params struct {
	// Seed makes the workload deterministic. Different threads derive
	// per-thread seeds from it.
	Seed uint64
	// AddrSpace places the workload in a disjoint simulated address-space
	// slice: code, lock words, shared data and per-thread private data are
	// all offset by AddrSpace * 2^44 bytes. Multiprocess runs give each
	// process a distinct value so processes do not alias each other's cache
	// lines (the zsim facade assigns process indices automatically); 0 keeps
	// the legacy shared layout.
	AddrSpace uint64

	// BlocksPerThread is how many dynamic basic blocks each worker thread
	// executes before finishing (the harness may also cut simulation earlier
	// by instruction count). If ScaleWork is true the per-thread count is
	// divided by the number of threads, modelling a fixed total problem size
	// (the speedup experiments need this).
	BlocksPerThread int
	// ScaleWork divides the work among threads (strong scaling) when true;
	// when false each thread does BlocksPerThread blocks (rate-style work).
	ScaleWork bool

	// AvgBlockLen is the average number of instructions per basic block.
	AvgBlockLen int
	// StaticBlocks is the number of distinct static basic blocks (the code
	// footprint); it determines L1I behaviour and the decoded-block count.
	StaticBlocks int

	// MemFraction is the fraction of instructions that access memory.
	MemFraction float64
	// StoreFraction is the fraction of memory instructions that are stores.
	StoreFraction float64
	// WorkingSet is the per-thread private data footprint in bytes.
	WorkingSet uint64
	// SharedWorkingSet is the footprint of data shared by all threads.
	SharedWorkingSet uint64
	// SharedFraction is the fraction of memory accesses that go to the shared
	// region (0 for single-threaded workloads).
	SharedFraction float64
	// StridedFraction is the fraction of accesses that follow a streaming
	// (unit-stride) pattern; the remainder are uniformly random within the
	// working set (pointer-chase-like behaviour).
	StridedFraction float64
	// DependentLoads, when true, makes consecutive loads dependent through a
	// register (pointer chasing), serializing them in the OOO model.
	DependentLoads bool

	// FPFraction is the fraction of ALU operations that are floating-point.
	FPFraction float64
	// LongOpFraction is the fraction of ALU operations that are long-latency
	// (multiply/divide).
	LongOpFraction float64
	// ILP is the number of independent dependency chains interleaved in
	// generated blocks (1 = fully serial chain, 4+ = high ILP).
	ILP int

	// BranchEvery is the number of instructions between conditional branches
	// (approximately one branch per basic block end).
	BranchEvery int
	// BranchRandomFrac is the fraction of conditional branches whose outcome
	// is random (hard to predict); the rest follow a strongly biased pattern.
	BranchRandomFrac float64

	// SerialFraction is the fraction of total work executed only by thread 0
	// while other threads wait at a barrier (Amdahl's-law limiter).
	SerialFraction float64
	// LockEvery is the number of blocks between critical sections (0 = no
	// locking).
	LockEvery int
	// LockHoldBlocks is the number of blocks executed inside a critical
	// section.
	LockHoldBlocks int
	// NumLocks is the number of distinct locks (1 = a single global lock,
	// giving heavy contention).
	NumLocks int
	// BarrierEvery is the number of blocks between global barriers (0 = no
	// barriers).
	BarrierEvery int
	// BlockedSyscallEvery is the number of blocks between blocking system
	// calls (0 = none); used by client-server style workloads.
	BlockedSyscallEvery int
	// BlockedSyscallCycles is how long each blocking syscall keeps the thread
	// off the cores.
	BlockedSyscallCycles uint64
}

// DefaultParams returns a moderate, compute-leaning parameter set used as the
// base for the registry entries and for tests.
func DefaultParams() Params {
	return Params{
		Seed:             1,
		BlocksPerThread:  10000,
		AvgBlockLen:      8,
		StaticBlocks:     256,
		MemFraction:      0.3,
		StoreFraction:    0.3,
		WorkingSet:       1 << 20, // 1 MB
		StridedFraction:  0.7,
		FPFraction:       0.2,
		LongOpFraction:   0.05,
		ILP:              3,
		BranchEvery:      8,
		BranchRandomFrac: 0.05,
		NumLocks:         8,
	}
}

// Workload is a named, parameterized program model. Use New to build the
// static code (basic blocks) and then Thread to obtain per-thread dynamic
// streams.
type Workload struct {
	Name    string
	Params  Params
	Threads int

	// prog is the translated static code: the StaticBlocks generated blocks,
	// then the spin block, the small cmpxchg loop body threads execute while
	// waiting for a contended lock; it generates coherence traffic on the
	// lock's cache line exactly as a spinlock would.
	prog *isa.Program

	// sharedBase is the base simulated address of the shared data region;
	// lock words live right below it.
	sharedBase uint64
}

// New constructs a workload with the given name, parameters and thread count.
// The static code footprint is generated deterministically from the seed and
// translated once (the program plays the role of Pin's translation cache).
func New(name string, p Params, threads int) *Workload {
	return NewIn(nil, name, p, threads)
}

// NewIn is New with the translated program's five arrays carved from the
// given arena (nil falls back to the heap), each at its exact size. The zsim
// facade gives each workload an arena of its own, so a warm simulator can
// keep one run's workloads for the next.
func NewIn(a *arena.Arena, name string, p Params, threads int) *Workload {
	if threads < 1 {
		threads = 1
	}
	// A decoded block indexes its µops with int16s: at an average of 4,096
	// a generated block has at most 6,145 instructions of at most two µops.
	p.AvgBlockLen = min(max(p.AvgBlockLen, 2), 4096)
	if p.StaticBlocks < 1 {
		p.StaticBlocks = 1
	}
	if p.ILP < 1 {
		p.ILP = 1
	}
	if p.NumLocks < 1 {
		p.NumLocks = 1
	}
	return &Workload{
		Name:       name,
		Params:     p,
		Threads:    threads,
		prog:       isa.Translate(a, staticCode(p)),
		sharedBase: 0x7f00_0000_0000 + p.AddrSpace<<44,
	}
}

// NumStaticBlocks returns the number of distinct static blocks generated.
func (w *Workload) NumStaticBlocks() int { return len(w.prog.Blocks) - 1 }

// spinBlock returns the decoded spin block, the program's last block.
func (w *Workload) spinBlock() *isa.DecodedBBL { return &w.prog.Blocks[len(w.prog.Blocks)-1] }

// staticCode returns the static code of a workload with parameters p, in
// program order: p.StaticBlocks blocks generated from p.Seed, then the spin
// block. Each block is built in one reused BasicBlock, valid until the next
// is yielded, and every range over the sequence yields the same blocks, as
// isa.Translate requires.
func staticCode(p Params) iter.Seq[*isa.BasicBlock] {
	return func(yield func(*isa.BasicBlock) bool) {
		rng := newRand(p.Seed ^ 0x9e3779b97f4a7c15)
		// A block emits at most n+2 instructions (body ops plus a
		// two-instruction cmp+jcc terminator), n < 3*AvgBlockLen/2.
		b := &isa.BasicBlock{
			Addr:   0x400000 + p.AddrSpace<<44,
			Instrs: make([]isa.Instruction, 0, p.AvgBlockLen*3/2+2),
		}
		for i := 0; i < p.StaticBlocks; i++ {
			n := p.AvgBlockLen/2 + int(rng.next()%uint64(p.AvgBlockLen))
			if n < 2 {
				n = 2
			}
			b.ID = uint64(i + 1)
			b.Instrs = b.Instrs[:0]
			memOps := int(float64(n)*p.MemFraction + 0.5)
			aluOps := n - memOps - 1 // one slot reserved for the ending branch
			if aluOps < 0 {
				aluOps = 0
			}
			// Interleave memory and ALU ops; build ILP chains by rotating the
			// destination register across chains.
			chain := 0
			loadReg := isa.GPR(10) // register carrying the last loaded value (for pointer chasing)
			for j := 0; j < memOps+aluOps; j++ {
				dst := isa.GPR(chain)
				src := isa.GPR((chain + 1) % p.ILP)
				chain = (chain + 1) % p.ILP
				isMem := false
				if memOps > 0 && (j%((memOps+aluOps)/max(memOps, 1)+1) == 0 || aluOps == 0) {
					isMem = true
					memOps--
				} else if aluOps > 0 {
					aluOps--
				} else {
					isMem = true
					memOps--
				}
				if isMem {
					if rng.float() < p.StoreFraction {
						b.Instrs = append(b.Instrs, isa.Instruction{Op: isa.OpStore, Dst: dst, Src1: isa.RBP, Bytes: 4})
					} else {
						base := isa.RBP
						ldst := dst
						if p.DependentLoads {
							base = loadReg
							ldst = loadReg
						}
						b.Instrs = append(b.Instrs, isa.Instruction{Op: isa.OpLoad, Dst: ldst, Src1: base, Bytes: 4})
					}
				} else {
					r := rng.float()
					switch {
					case r < p.FPFraction*p.LongOpFraction*4:
						b.Instrs = append(b.Instrs, isa.Instruction{Op: isa.OpFDiv, Dst: isa.XMM(chain), Src1: isa.XMM(chain), Src2: isa.XMM((chain + 1) % 16), Bytes: 4})
					case r < p.FPFraction:
						op := isa.OpFAdd
						if rng.float() < 0.4 {
							op = isa.OpFMul
						}
						b.Instrs = append(b.Instrs, isa.Instruction{Op: op, Dst: isa.XMM(chain), Src1: isa.XMM(chain), Src2: isa.XMM((chain + 1) % 16), Bytes: 4})
					case r < p.FPFraction+p.LongOpFraction:
						op := isa.OpMul
						if rng.float() < 0.2 {
							op = isa.OpDiv
						}
						b.Instrs = append(b.Instrs, isa.Instruction{Op: op, Dst: dst, Src1: dst, Src2: src, Bytes: 3})
					default:
						b.Instrs = append(b.Instrs, isa.Instruction{Op: isa.OpAdd, Dst: dst, Src1: dst, Src2: src, Bytes: 3})
					}
				}
			}
			// Terminate with a compare + conditional branch (most blocks) or an
			// unconditional jump (some blocks), giving realistic branch density.
			if rng.float() < 0.85 {
				b.Instrs = append(b.Instrs,
					isa.Instruction{Op: isa.OpCmp, Src1: isa.GPR(0), Src2: isa.GPR(1), Bytes: 3},
					isa.Instruction{Op: isa.OpJcc, Bytes: 2})
			} else {
				b.Instrs = append(b.Instrs, isa.Instruction{Op: isa.OpJmp, Bytes: 2})
			}
			next := b.Addr + b.Bytes()
			if !yield(b) {
				return
			}
			b.Addr = next
		}

		// The spin block: load the lock word, compare, attempt cmpxchg, branch.
		b.ID = uint64(p.StaticBlocks + 1)
		b.Instrs = append(b.Instrs[:0],
			isa.Instruction{Op: isa.OpLoad, Dst: isa.RAX, Src1: isa.RBX, Bytes: 4},
			isa.Instruction{Op: isa.OpCmp, Src1: isa.RAX, Src2: isa.RCX, Bytes: 3},
			isa.Instruction{Op: isa.OpCmpXchg, Dst: isa.RAX, Src1: isa.RBX, Src2: isa.RDX, Bytes: 5},
			isa.Instruction{Op: isa.OpJcc, Bytes: 2},
		)
		yield(b)
	}
}

// LockAddr returns the simulated address of lock word id. Lock words are
// spaced a cache line apart just below the shared region.
func (w *Workload) LockAddr(id int) uint64 {
	return w.sharedBase - uint64((id+1))*64
}
