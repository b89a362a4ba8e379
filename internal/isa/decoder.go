package isa

import "zsim/internal/arena"

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

// DecodedBBL is the translation-time artifact the core timing models consume:
// the µop expansion of a static basic block, plus everything about the block
// that can be pre-computed once (frontend decode stalls, counts of loads,
// stores, and branches, total instruction bytes, and the timing template:
// per-µop dependence skeleton, memory-op list, live-out register set). It
// corresponds to the "Decoded BBL µops" table of Figure 1 in the paper.
//
// A DecodedBBL is immutable after creation and shared by every dynamic
// execution of its static block, by every core, without locking.
type DecodedBBL struct {
	ID     uint64
	Addr   uint64
	Bytes  uint64
	Instrs int   // number of x86 instructions (after macro-op fusion, FusedInstrs <= Instrs)
	Uops   []Uop // µops in program order

	// DecodeCycles is the number of frontend decode cycles the block needs on
	// the modeled 4-1-1-1 decoder with a 16-byte/cycle length predecoder.
	// It is pre-computed here so the OOO model's frontend only adds a constant.
	DecodeCycles uint32

	// Counts pre-computed for the timing models and statistics.
	Loads    int
	Stores   int
	Branches int
	// CondBranch is true if the block ends in a conditional branch (the only
	// kind that consults the branch predictor's direction prediction).
	CondBranch bool
	// Approx is true if any instruction in the block used the generic,
	// approximate decoding (OpComplex); the paper reports ~0.01% of dynamic
	// instructions take this path.
	Approx bool

	// Timing template (computed once at translation time by buildTemplate).
	MemOps  []MemOp    // loads and StData stores in µop program order
	Tmpl    []UopTmpl  // one skeleton entry per µop
	LiveOut []RegWrite // registers written by the block, with last writer
	// MemSlots is the number of data addresses a dynamic execution of the
	// block carries: one more than the highest Uop.MemSlot, 0 if none.
	MemSlots int
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
// It is consulted by the 4-1-1-1 decode model (instructions that decode to
// one µop can go to any of the four decoders, multi-µop instructions only to
// the first) and to pre-size arena-backed µop slices — both per static
// block, so keeping it a table instead of a throwaway decodeOne call makes
// translation allocation-free. TestUopSlotsMatchDecode pins it to decodeOne.
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

// Decode translates one static basic block into its DecodedBBL. Macro-op
// fusion merges a flag-setting compare/test with an immediately following
// conditional branch into a single µop, as Westmere does.
func Decode(b *BasicBlock) *DecodedBBL {
	return DecodeIn(nil, b)
}

// DecodeIn is Decode with the DecodedBBL and every slice it owns — µops,
// timing template, memory-op list, live-out set — carved from the given
// construction arena (nil falls back to the heap). Workload construction
// decodes thousands of blocks; with an arena this is the difference between
// ~4k small allocations per workload and a handful of chunk allocations.
func DecodeIn(a *arena.Arena, b *BasicBlock) *DecodedBBL {
	d := arena.One[DecodedBBL](a)
	d.ID = b.ID
	d.Addr = b.Addr
	d.Bytes = b.Bytes()
	// Exact µop capacity: macro-op fusion only ever shrinks the count.
	maxUops := 0
	for i := range b.Instrs {
		maxUops += uopSlots(b.Instrs[i])
	}
	d.Uops = arena.TakeCap[Uop](a, 0, maxUops)
	// fused is decode-time scratch; it must not come from the permanent
	// arena (which never frees), and a stack buffer keeps the common case
	// allocation-free.
	var fusedBuf [64]bool
	var fused []bool
	if len(b.Instrs) > len(fusedBuf) {
		fused = make([]bool, len(b.Instrs))
	} else {
		fused = fusedBuf[:len(b.Instrs)]
	}
	var memSlot int8
	instrCount := 0
	for i := 0; i < len(b.Instrs); i++ {
		ins := b.Instrs[i]
		instrCount++
		// Macro-op fusion: cmp/test followed by jcc.
		if (ins.Op == OpCmp || ins.Op == OpTest) && i+1 < len(b.Instrs) && b.Instrs[i+1].Op == OpJcc {
			d.Uops = append(d.Uops, Uop{
				Type: UopBranch, Src1: ins.Src1, Src2: ins.Src2, Dst1: RIP, Dst2: RFlags,
				Lat: 1, Ports: PortsBranch, MemSlot: -1,
			})
			fused[i+1] = true
			d.Branches++
			d.CondBranch = true
			instrCount++ // the fused jcc still counts as an instruction
			i++
			continue
		}
		start := len(d.Uops)
		d.Uops = decodeOne(ins, &memSlot, d.Uops)
		for _, u := range d.Uops[start:] {
			switch u.Type {
			case UopLoad:
				d.Loads++
			case UopStData:
				d.Stores++
			case UopBranch:
				d.Branches++
				if ins.Op.IsConditional() {
					d.CondBranch = true
				}
			}
		}
		if ins.Op == OpComplex {
			d.Approx = true
		}
	}
	d.Instrs = instrCount
	d.DecodeCycles = frontendCycles(b.Instrs, fused)
	d.buildTemplate(a)
	return d
}

// buildTemplate computes the block's timing template: the memory-op list, the
// per-µop dependence skeleton, the live-out register set and the memory-slot
// count. It runs once per static block, at translation time; the core
// models' and trace threads' per-dynamic-block loops consume the result
// without re-deriving any of it. Template storage is carved from the
// construction arena when one is supplied.
func (d *DecodedBBL) buildTemplate(a *arena.Arena) {
	var lastWriter [NumRegs]int16
	for i := range lastWriter {
		lastWriter[i] = -1
	}
	d.Tmpl = arena.Take[UopTmpl](a, len(d.Uops))
	d.MemOps = arena.TakeCap[MemOp](a, 0, d.Loads+d.Stores)
	for i := range d.Uops {
		u := &d.Uops[i]
		t := &d.Tmpl[i]
		t.Dep1, t.Dep2 = -1, -1
		d.MemSlots = max(d.MemSlots, int(u.MemSlot)+1)
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
			d.MemOps = append(d.MemOps, MemOp{Slot: u.MemSlot})
			t.OrderedMem = true
		case UopStData:
			d.MemOps = append(d.MemOps, MemOp{Slot: u.MemSlot, Store: true})
			t.OrderedMem = true
		case UopStAddr, UopFence:
			t.OrderedMem = true
		}
		if u.Dst1 != RegZero {
			lastWriter[u.Dst1] = int16(i)
		}
		if u.Dst2 != RegZero {
			lastWriter[u.Dst2] = int16(i)
		}
	}
	liveOut := 0
	for r := 1; r < int(NumRegs); r++ {
		if lastWriter[r] >= 0 {
			liveOut++
		}
	}
	d.LiveOut = arena.TakeCap[RegWrite](a, 0, liveOut)
	for r := 1; r < int(NumRegs); r++ {
		if w := lastWriter[r]; w >= 0 {
			d.LiveOut = append(d.LiveOut, RegWrite{Reg: Reg(r), Uop: w})
		}
	}
}
