package isa

import (
	"fmt"
	"iter"
	"math"
	"math/bits"

	"zsim/internal/arena"
)

// MemOp is one memory access of a block's timing template, in µop program
// order: the memory-operand slot it reads its dynamic address from and
// whether it is a store (StData) rather than a load. The IPC1 model consumes
// a dynamic block by walking this list only, so its per-block work is
// O(memory accesses) instead of O(µops).
type MemOp struct {
	Slot  int8
	Store bool
}

// UopTmpl is the translation-time issue-schedule skeleton of one µop: the
// intra-block dependence edges (the index of the in-block producer of each
// source operand, or -1) and, for sources produced outside the block, the
// architectural register whose cross-block readiness must be consulted at
// simulation time. OrderedMem marks µops that participate in fence ordering.
// Everything here is knowable once per static block; the OOO model's dynamic
// loop only resolves cross-block register liveness (Ext1/Ext2) and memory
// response timestamps.
type UopTmpl struct {
	Dep1, Dep2 int16 // in-block producer µop index, -1 if none
	Ext1, Ext2 Reg   // cross-block source register (RegZero if none or in-block)
	OrderedMem bool  // Load/StAddr/StData/Fence: serialized behind fences
}

// RegWrite names a register the block writes and the µop index of its last
// in-block writer; the OOO model updates its cross-block scoreboard from this
// live-out list once per block instead of twice per µop.
type RegWrite struct {
	Reg Reg
	Uop int16
}

// DecodedBBL is the translation-time artifact the core timing models consume
// for one static basic block: everything about the block that can be
// computed once (frontend decode stalls, counts of loads, stores and
// branches, total instruction bytes) and where its µops and timing template
// — per-µop dependence skeleton, memory-op list, live-out register set — sit
// in its Program's flat arrays. It corresponds to the "Decoded BBL µops"
// table of Figure 1 in the paper.
//
// A DecodedBBL holds no pointer and fills at most one 64 B host line
// (TestDecodedLayout), so a program's blocks are one pointer-free array the
// GC never scans. It is immutable after translation and shared by every
// dynamic execution of its static block, by every core, without locking;
// Program's Uops, Tmpl, MemOps and LiveOut methods return its slices.
type DecodedBBL struct {
	ID     uint64
	Addr   uint64
	Bytes  uint64
	Instrs int // number of x86 instructions (a macro-fused cmp+jcc pair counts as two)

	// DecodeCycles is the number of frontend decode cycles the block needs on
	// the modeled 4-1-1-1 decoder with a 16-byte/cycle length predecoder.
	// It is pre-computed here so the OOO model's frontend only adds a constant.
	DecodeCycles uint32

	// Where the block's entries start in its Program's arrays: µops and
	// their templates at uopOff (NumUops of each), memory ops at memOff
	// (Loads+Stores of them), live-out writes at liveOff (nLive of them).
	uopOff, memOff, liveOff uint32
	nLive                   uint16

	// Counts pre-computed for the timing models and statistics.
	NumUops  uint16
	Loads    uint16
	Stores   uint16
	Branches uint16
	// MemSlots is the number of data addresses a dynamic execution of the
	// block carries: one more than the highest Uop.MemSlot, 0 if none.
	MemSlots uint8
	// CondBranch is true if the block ends in a conditional branch (the only
	// kind that consults the branch predictor's direction prediction).
	CondBranch bool
	// Approx is true if any instruction in the block used the generic,
	// approximate decoding (OpComplex); the paper reports ~0.01% of dynamic
	// instructions take this path.
	Approx bool
}

// Program is a translated program: one DecodedBBL per static block and four
// program-wide arrays the blocks index by offset and count. Translate sizes
// each array exactly before filling it, so a program is five allocations (or
// five arena takes) whatever its block count, and none of them holds a
// pointer.
type Program struct {
	// Blocks are the program's decoded blocks, in the order its code yielded
	// them.
	Blocks []DecodedBBL

	uops    []Uop      // µops in program order
	tmpl    []UopTmpl  // one skeleton entry per µop
	memOps  []MemOp    // loads and StData stores in µop program order
	liveOut []RegWrite // registers each block writes, with last writer
}

// Uops returns block d's µops in program order.
func (p *Program) Uops(d *DecodedBBL) []Uop {
	return p.uops[d.uopOff : d.uopOff+uint32(d.NumUops)]
}

// Tmpl returns block d's timing skeleton, one entry per µop.
func (p *Program) Tmpl(d *DecodedBBL) []UopTmpl {
	return p.tmpl[d.uopOff : d.uopOff+uint32(d.NumUops)]
}

// MemOps returns block d's loads and StData stores in µop program order.
func (p *Program) MemOps(d *DecodedBBL) []MemOp {
	return p.memOps[d.memOff : d.memOff+uint32(d.Loads)+uint32(d.Stores)]
}

// LiveOut returns the registers block d writes, each with its last in-block
// writer, in register order.
func (p *Program) LiveOut(d *DecodedBBL) []RegWrite {
	return p.liveOut[d.liveOff : d.liveOff+uint32(d.nLive)]
}

// decodeOne expands a single instruction into µops, appending to out. It
// returns the new slice. The expansions follow the µop fission rules of
// Westmere-class cores: load-op instructions split into a load µop and an
// exec µop; store instructions split into store-address and store-data µops;
// read-modify-write instructions produce load + exec + StAddr + StData.
func decodeOne(ins Instruction, memSlot *int8, out []Uop) []Uop {
	nextMem := func() int8 {
		s := *memSlot
		*memSlot++
		return s
	}
	switch ins.Op {
	case OpNop, OpMagic:
		// NOPs still occupy a decode and retire slot: a zero-latency exec µop
		// with no dependencies.
		out = append(out, Uop{Type: UopExec, Lat: 1, Ports: PortsALU, MemSlot: -1})
	case OpMovRR, OpMovRI, OpLea:
		out = append(out, Uop{Type: UopExec, Src1: ins.Src1, Dst1: ins.Dst, Lat: 1, Ports: PortsALU, MemSlot: -1})
	case OpLoad:
		out = append(out, Uop{Type: UopLoad, Src1: ins.Src1, Dst1: ins.Dst, Lat: 4, Ports: PortsLoad, MemSlot: nextMem()})
	case OpFLoad:
		out = append(out, Uop{Type: UopLoad, Src1: ins.Src1, Dst1: ins.Dst, Lat: 5, Ports: PortsLoad, MemSlot: nextMem()})
	case OpStore, OpFStore:
		slot := nextMem()
		out = append(out,
			Uop{Type: UopStAddr, Src1: ins.Src1, Lat: 1, Ports: PortsStAddr, MemSlot: slot},
			Uop{Type: UopStData, Src1: ins.Dst, Lat: 0, Ports: PortsStData, MemSlot: slot})
	case OpAdd:
		out = append(out, Uop{Type: UopExec, Src1: ins.Src1, Src2: ins.Src2, Dst1: ins.Dst, Dst2: RFlags, Lat: 1, Ports: PortsALU, MemSlot: -1})
	case OpAddMem:
		slot := nextMem()
		out = append(out,
			Uop{Type: UopLoad, Src1: ins.Src2, Dst1: RegZero, Lat: 4, Ports: PortsLoad, MemSlot: slot},
			Uop{Type: UopExec, Src1: ins.Src1, Dst1: ins.Dst, Dst2: RFlags, Lat: 1, Ports: PortsALU, MemSlot: -1})
	case OpAddToMem:
		slot := nextMem()
		out = append(out,
			Uop{Type: UopLoad, Src1: ins.Src1, Dst1: RegZero, Lat: 4, Ports: PortsLoad, MemSlot: slot},
			Uop{Type: UopExec, Src1: ins.Src2, Dst1: RegZero, Dst2: RFlags, Lat: 1, Ports: PortsALU, MemSlot: -1},
			Uop{Type: UopStAddr, Src1: ins.Src1, Lat: 1, Ports: PortsStAddr, MemSlot: slot},
			Uop{Type: UopStData, Lat: 0, Ports: PortsStData, MemSlot: slot})
	case OpMul:
		out = append(out, Uop{Type: UopExec, Src1: ins.Src1, Src2: ins.Src2, Dst1: ins.Dst, Dst2: RFlags, Lat: 3, Ports: PortsFPMul, MemSlot: -1})
	case OpDiv:
		out = append(out, Uop{Type: UopExec, Src1: ins.Src1, Src2: ins.Src2, Dst1: ins.Dst, Dst2: RFlags, Lat: 21, Ports: PortsFPMul, MemSlot: -1})
	case OpCmp, OpTest:
		out = append(out, Uop{Type: UopExec, Src1: ins.Src1, Src2: ins.Src2, Dst1: RFlags, Lat: 1, Ports: PortsALU, MemSlot: -1})
	case OpCmpMem:
		out = append(out,
			Uop{Type: UopLoad, Src1: ins.Src2, Dst1: RegZero, Lat: 4, Ports: PortsLoad, MemSlot: nextMem()},
			Uop{Type: UopExec, Src1: ins.Src1, Dst1: RFlags, Lat: 1, Ports: PortsALU, MemSlot: -1})
	case OpJcc:
		out = append(out, Uop{Type: UopBranch, Src1: RFlags, Dst1: RIP, Lat: 1, Ports: PortsBranch, MemSlot: -1})
	case OpJmp:
		out = append(out, Uop{Type: UopBranch, Dst1: RIP, Lat: 1, Ports: PortsBranch, MemSlot: -1})
	case OpCall:
		slot := nextMem()
		out = append(out,
			Uop{Type: UopExec, Src1: RSP, Dst1: RSP, Lat: 1, Ports: PortsALU, MemSlot: -1},
			Uop{Type: UopStAddr, Src1: RSP, Lat: 1, Ports: PortsStAddr, MemSlot: slot},
			Uop{Type: UopStData, Src1: RIP, Lat: 0, Ports: PortsStData, MemSlot: slot},
			Uop{Type: UopBranch, Dst1: RIP, Lat: 1, Ports: PortsBranch, MemSlot: -1})
	case OpRet:
		out = append(out,
			Uop{Type: UopLoad, Src1: RSP, Dst1: RIP, Lat: 4, Ports: PortsLoad, MemSlot: nextMem()},
			Uop{Type: UopExec, Src1: RSP, Dst1: RSP, Lat: 1, Ports: PortsALU, MemSlot: -1},
			Uop{Type: UopBranch, Src1: RIP, Dst1: RIP, Lat: 1, Ports: PortsBranch, MemSlot: -1})
	case OpPush:
		slot := nextMem()
		out = append(out,
			Uop{Type: UopExec, Src1: RSP, Dst1: RSP, Lat: 1, Ports: PortsALU, MemSlot: -1},
			Uop{Type: UopStAddr, Src1: RSP, Lat: 1, Ports: PortsStAddr, MemSlot: slot},
			Uop{Type: UopStData, Src1: ins.Src1, Lat: 0, Ports: PortsStData, MemSlot: slot})
	case OpPop:
		out = append(out,
			Uop{Type: UopLoad, Src1: RSP, Dst1: ins.Dst, Lat: 4, Ports: PortsLoad, MemSlot: nextMem()},
			Uop{Type: UopExec, Src1: RSP, Dst1: RSP, Lat: 1, Ports: PortsALU, MemSlot: -1})
	case OpFAdd:
		out = append(out, Uop{Type: UopExec, Src1: ins.Src1, Src2: ins.Src2, Dst1: ins.Dst, Lat: 3, Ports: PortsFPAdd, MemSlot: -1})
	case OpFMul:
		out = append(out, Uop{Type: UopExec, Src1: ins.Src1, Src2: ins.Src2, Dst1: ins.Dst, Lat: 5, Ports: PortsFPMul, MemSlot: -1})
	case OpFDiv:
		out = append(out, Uop{Type: UopExec, Src1: ins.Src1, Src2: ins.Src2, Dst1: ins.Dst, Lat: 22, Ports: PortsFPMul, MemSlot: -1})
	case OpFMA:
		out = append(out, Uop{Type: UopExec, Src1: ins.Src1, Src2: ins.Src2, Dst1: ins.Dst, Lat: 5, Ports: PortsFPMul, MemSlot: -1})
	case OpXchg:
		slot := nextMem()
		out = append(out,
			Uop{Type: UopLoad, Src1: ins.Src1, Dst1: ins.Dst, Lat: 4, Ports: PortsLoad, MemSlot: slot},
			Uop{Type: UopFence, Lat: 12, Ports: PortsALU, MemSlot: -1},
			Uop{Type: UopStAddr, Src1: ins.Src1, Lat: 1, Ports: PortsStAddr, MemSlot: slot},
			Uop{Type: UopStData, Src1: ins.Src2, Lat: 0, Ports: PortsStData, MemSlot: slot})
	case OpCmpXchg:
		slot := nextMem()
		out = append(out,
			Uop{Type: UopLoad, Src1: ins.Src1, Dst1: ins.Dst, Lat: 4, Ports: PortsLoad, MemSlot: slot},
			Uop{Type: UopExec, Src1: ins.Dst, Src2: ins.Src2, Dst1: RFlags, Lat: 1, Ports: PortsALU, MemSlot: -1},
			Uop{Type: UopFence, Lat: 12, Ports: PortsALU, MemSlot: -1},
			Uop{Type: UopStAddr, Src1: ins.Src1, Lat: 1, Ports: PortsStAddr, MemSlot: slot},
			Uop{Type: UopStData, Src1: ins.Src2, Lat: 0, Ports: PortsStData, MemSlot: slot})
	case OpFence:
		out = append(out, Uop{Type: UopFence, Lat: 20, Ports: PortsALU, MemSlot: -1})
	case OpRdtsc:
		out = append(out,
			Uop{Type: UopExec, Dst1: RAX, Lat: 24, Ports: PortsFPMul, MemSlot: -1},
			Uop{Type: UopExec, Dst1: RDX, Lat: 1, Ports: PortsALU, MemSlot: -1})
	case OpComplex:
		// Generic approximate decoding for rarely-used instructions: the
		// paper produces an approximate dataflow decoding for these (0.01% of
		// dynamic instructions). We model them as a medium-latency exec µop
		// pair touching the given registers.
		out = append(out,
			Uop{Type: UopExec, Src1: ins.Src1, Src2: ins.Src2, Dst1: ins.Dst, Lat: 7, Ports: PortsFPMul, MemSlot: -1},
			Uop{Type: UopExec, Src1: ins.Dst, Dst1: ins.Dst, Lat: 1, Ports: PortsALU, MemSlot: -1})
	default:
		out = append(out, Uop{Type: UopExec, Src1: ins.Src1, Src2: ins.Src2, Dst1: ins.Dst, Lat: 1, Ports: PortsALU, MemSlot: -1})
	}
	return out
}

// uopSlotTable holds, per opcode, the number of µops decodeOne emits for it.
// The 4-1-1-1 decode model consults it once per instruction (instructions
// that decode to one µop can go to any of the four decoders, multi-µop
// instructions only to the first), so keeping it a table instead of a
// throwaway decodeOne call keeps that model allocation-free.
// TestUopSlotsMatchDecode pins it to decodeOne.
var uopSlotTable = [NumOpcodes]int8{
	OpNop: 1, OpMagic: 1,
	OpMovRR: 1, OpMovRI: 1, OpLea: 1,
	OpLoad: 1, OpFLoad: 1,
	OpStore: 2, OpFStore: 2,
	OpAdd: 1, OpAddMem: 2, OpAddToMem: 4,
	OpMul: 1, OpDiv: 1,
	OpCmp: 1, OpTest: 1, OpCmpMem: 2,
	OpJcc: 1, OpJmp: 1,
	OpCall: 4, OpRet: 3, OpPush: 3, OpPop: 2,
	OpFAdd: 1, OpFMul: 1, OpFDiv: 1, OpFMA: 1,
	OpXchg: 4, OpCmpXchg: 5,
	OpFence: 1, OpRdtsc: 2, OpComplex: 2,
}

// uopSlots returns the number of decoder µop slots an instruction occupies.
func uopSlots(ins Instruction) int {
	if int(ins.Op) < len(uopSlotTable) {
		if n := uopSlotTable[ins.Op]; n > 0 {
			return int(n)
		}
	}
	return 1 // decodeOne's default arm emits one exec µop
}

// frontendCycles computes the decode cycles for a block on a Westmere-like
// frontend: a 16-byte-per-cycle instruction length predecoder feeding a
// 4-1-1-1 decoder (one complex decoder handling multi-µop instructions, three
// simple decoders handling single-µop instructions), macro-fused cmp+jcc
// pairs counting as one instruction.
func frontendCycles(instrs []Instruction, fused []bool) uint32 {
	// Predecoder: total bytes / 16 per cycle.
	var bytes uint64
	for _, ins := range instrs {
		bytes += uint64(ins.Bytes)
	}
	preCycles := (bytes + 15) / 16

	// Decoder: walk instructions, packing up to 4 per cycle with the 4-1-1-1
	// constraint.
	var decCycles uint32
	slotInCycle := 0
	for i, ins := range instrs {
		if fused[i] {
			continue // fused into the previous instruction, free
		}
		slots := uopSlots(ins)
		if slots > 1 {
			// Complex instruction: needs the first decoder; start a new cycle
			// unless we are already at the start of one.
			if slotInCycle != 0 {
				decCycles++
				slotInCycle = 0
			}
			slotInCycle = 1
		} else {
			if slotInCycle == 4 {
				decCycles++
				slotInCycle = 0
			}
			slotInCycle++
		}
	}
	if slotInCycle > 0 {
		decCycles++
	}
	if uint32(preCycles) > decCycles {
		return uint32(preCycles)
	}
	return decCycles
}

// Decode translates one static basic block into a one-block Program, the
// reference every multi-block translation must agree with block by block.
func Decode(b *BasicBlock) *Program {
	var n footprint
	n.count(b)
	p := n.program(nil)
	p.add(b)
	return p
}

// Translate decodes every block code yields into one Program whose five
// arrays are carved from the arena (nil falls back to the heap), each taken
// once at its exact size. It ranges over code twice — a counting pass, then
// the pass that fills the arrays — so code must yield the same blocks each
// time; a block is read only while it is the one yielded, so code may build
// every block in one reused BasicBlock. Macro-op fusion merges a
// flag-setting compare/test with an immediately following conditional
// branch into a single µop, as Westmere does.
func Translate(a *arena.Arena, code iter.Seq[*BasicBlock]) *Program {
	var n footprint
	for b := range code {
		n.count(b)
	}
	p := n.program(a)
	for b := range code {
		p.add(b)
	}
	if (footprint{len(p.Blocks), len(p.uops), len(p.memOps), len(p.liveOut)}) != n {
		panic("isa: Translate's code yielded different blocks on its second pass")
	}
	return p
}

// footprint is the length of each of a program's arrays (the template has
// one entry per µop).
type footprint struct {
	blocks, uops, memOps, liveOut int
}

// count adds block b's entries: one block, its µops, its loads and StData
// stores, and the distinct registers it writes.
func (n *footprint) count(b *BasicBlock) {
	var uopBuf [64]Uop
	var fusedBuf [64]bool
	uops := expand(b.Instrs, uopBuf[:0], fusedFlags(&fusedBuf, len(b.Instrs)))
	var written uint64 // bit r set: register r is written (NumRegs <= 64)
	for i := range uops {
		u := &uops[i]
		if u.Type == UopLoad || u.Type == UopStData {
			n.memOps++
		}
		written |= 1<<u.Dst1 | 1<<u.Dst2
	}
	n.blocks++
	n.uops += len(uops)
	n.liveOut += bits.OnesCount64(written &^ (1 << RegZero))
}

// program returns an empty Program with room for exactly the counted
// entries, each array carved from the arena in a chunk of its own when the
// arena's current one lacks the room.
func (n *footprint) program(a *arena.Arena) *Program {
	return &Program{
		Blocks:  exact[DecodedBBL](a, n.blocks),
		uops:    exact[Uop](a, n.uops),
		tmpl:    exact[UopTmpl](a, n.uops),
		memOps:  exact[MemOp](a, n.memOps),
		liveOut: exact[RegWrite](a, n.liveOut),
	}
}

// exact returns an empty slice with room for exactly n Ts.
func exact[T any](a *arena.Arena, n int) []T {
	arena.Reserve[T](a, n)
	return arena.TakeCap[T](a, 0, n)
}

// fusedFlags returns n all-false flags, in buf when they fit.
func fusedFlags(buf *[64]bool, n int) []bool {
	if n > len(buf) {
		return make([]bool, n)
	}
	return buf[:n]
}

// expand appends the µops of instrs to uops, fusing each cmp/test that a jcc
// follows into one branch µop, and sets fused[i] for each jcc fusion
// absorbed. fused has one all-false entry per instruction.
func expand(instrs []Instruction, uops []Uop, fused []bool) []Uop {
	var memSlot int8
	for i := 0; i < len(instrs); i++ {
		ins := instrs[i]
		if (ins.Op == OpCmp || ins.Op == OpTest) && i+1 < len(instrs) && instrs[i+1].Op == OpJcc {
			uops = append(uops, Uop{
				Type: UopBranch, Src1: ins.Src1, Src2: ins.Src2, Dst1: RIP, Dst2: RFlags,
				Lat: 1, Ports: PortsBranch, MemSlot: -1,
			})
			fused[i+1] = true
			i++
			continue
		}
		uops = decodeOne(ins, &memSlot, uops)
	}
	return uops
}

// add decodes block b into the next entries of the program's arrays.
func (p *Program) add(b *BasicBlock) {
	var fusedBuf [64]bool
	fused := fusedFlags(&fusedBuf, len(b.Instrs))
	start := len(p.uops)
	p.uops = expand(b.Instrs, p.uops, fused)
	n := len(p.uops) - start
	if n > math.MaxInt16 {
		panic(fmt.Sprintf("isa: block %d decodes to %d µops; a block holds at most %d", b.ID, n, math.MaxInt16))
	}
	d := DecodedBBL{
		ID:           b.ID,
		Addr:         b.Addr,
		Bytes:        b.Bytes(),
		Instrs:       len(b.Instrs),
		DecodeCycles: frontendCycles(b.Instrs, fused),
		uopOff:       uint32(start),
		memOff:       uint32(len(p.memOps)),
		liveOff:      uint32(len(p.liveOut)),
		NumUops:      uint16(n),
	}
	for _, ins := range b.Instrs {
		d.CondBranch = d.CondBranch || ins.Op.IsConditional()
		d.Approx = d.Approx || ins.Op == OpComplex
	}
	p.buildTemplate(&d)
	p.Blocks = append(p.Blocks, d)
}

// buildTemplate appends block d's timing template — the per-µop dependence
// skeleton, the memory-op list and the live-out register set — to the
// program's arrays and sets d's µop counts and memory-slot count. It runs
// once per static block, at translation time; the core models' and trace
// threads' per-dynamic-block loops consume the result without re-deriving
// any of it.
func (p *Program) buildTemplate(d *DecodedBBL) {
	var lastWriter [NumRegs]int16
	for i := range lastWriter {
		lastWriter[i] = -1
	}
	uops := p.Uops(d)
	for i := range uops {
		u := &uops[i]
		t := UopTmpl{Dep1: -1, Dep2: -1}
		d.MemSlots = max(d.MemSlots, uint8(int(u.MemSlot)+1))
		if u.Src1 != RegZero {
			if w := lastWriter[u.Src1]; w >= 0 {
				t.Dep1 = w
			} else {
				t.Ext1 = u.Src1
			}
		}
		if u.Src2 != RegZero {
			if w := lastWriter[u.Src2]; w >= 0 {
				t.Dep2 = w
			} else {
				t.Ext2 = u.Src2
			}
		}
		switch u.Type {
		case UopLoad:
			d.Loads++
			p.memOps = append(p.memOps, MemOp{Slot: u.MemSlot})
			t.OrderedMem = true
		case UopStData:
			d.Stores++
			p.memOps = append(p.memOps, MemOp{Slot: u.MemSlot, Store: true})
			t.OrderedMem = true
		case UopStAddr, UopFence:
			t.OrderedMem = true
		case UopBranch:
			d.Branches++
		}
		p.tmpl = append(p.tmpl, t)
		if u.Dst1 != RegZero {
			lastWriter[u.Dst1] = int16(i)
		}
		if u.Dst2 != RegZero {
			lastWriter[u.Dst2] = int16(i)
		}
	}
	for r := 1; r < int(NumRegs); r++ {
		if w := lastWriter[r]; w >= 0 {
			p.liveOut = append(p.liveOut, RegWrite{Reg: Reg(r), Uop: w})
			d.nLive++
		}
	}
}
