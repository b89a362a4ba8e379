package isa

import "fmt"

// Opcode identifies a simulated instruction. The set covers the instruction
// classes that dominate compiled x86-64 code (the paper notes that modern
// compilers emit only a fraction of the ISA, and that zsim decodes rarely
// used opcodes approximately): integer ALU, multiply/divide, loads, stores,
// read-modify-write ops, branches, calls/returns, FP/SIMD arithmetic, fences
// and atomics, plus a handful of "complex" micro-sequenced instructions that
// receive an approximate generic decoding.
type Opcode uint8

// Instruction opcodes.
const (
	OpNop      Opcode = iota
	OpMovRR           // reg <- reg
	OpMovRI           // reg <- immediate
	OpLoad            // reg <- [mem]
	OpStore           // [mem] <- reg
	OpAdd             // reg <- reg + reg
	OpAddMem          // reg <- reg + [mem]  (load-op µop fission)
	OpAddToMem        // [mem] <- [mem] + reg (load + exec + store fission)
	OpLea             // reg <- address computation
	OpMul             // integer multiply
	OpDiv             // integer divide
	OpCmp             // compare, sets flags
	OpCmpMem          // compare with memory operand
	OpTest            // test, sets flags
	OpJcc             // conditional branch (reads flags)
	OpJmp             // unconditional branch
	OpCall            // call (pushes return address: exec + store)
	OpRet             // return (pops return address: load + branch)
	OpPush            // push reg
	OpPop             // pop reg
	OpFAdd            // FP/SIMD add
	OpFMul            // FP/SIMD multiply
	OpFDiv            // FP/SIMD divide
	OpFMA             // fused multiply-add
	OpFLoad           // vector load
	OpFStore          // vector store
	OpXchg            // atomic exchange (locked RMW)
	OpCmpXchg         // atomic compare-and-swap (locked RMW)
	OpFence           // mfence / serializing op
	OpRdtsc           // read timestamp counter (virtualized by package virt)
	OpMagic           // magic NOP used for simulator control (Section 3.3)
	OpComplex         // rarely-used instruction with generic approximate decoding (e.g., x87)
	NumOpcodes
)

// String returns the instruction mnemonic.
func (o Opcode) String() string {
	names := [...]string{
		"nop", "mov", "movi", "load", "store", "add", "addm", "addtom", "lea",
		"mul", "div", "cmp", "cmpm", "test", "jcc", "jmp", "call", "ret",
		"push", "pop", "fadd", "fmul", "fdiv", "fma", "fload", "fstore",
		"xchg", "cmpxchg", "fence", "rdtsc", "magic", "complex",
	}
	if int(o) < len(names) {
		return names[o]
	}
	return fmt.Sprintf("op%d", uint8(o))
}

// IsConditional reports whether the opcode is a conditional branch.
func (o Opcode) IsConditional() bool { return o == OpJcc }

// HasLoad reports whether the opcode reads memory.
func (o Opcode) HasLoad() bool {
	switch o {
	case OpLoad, OpAddMem, OpAddToMem, OpCmpMem, OpRet, OpPop, OpFLoad, OpXchg, OpCmpXchg:
		return true
	}
	return false
}

// HasStore reports whether the opcode writes memory.
func (o Opcode) HasStore() bool {
	switch o {
	case OpStore, OpAddToMem, OpCall, OpPush, OpFStore, OpXchg, OpCmpXchg:
		return true
	}
	return false
}

// Instruction is a static instruction in a basic block. Registers are
// architectural; memory operands are abstract slots whose dynamic addresses
// are produced by the workload generator at simulation time.
type Instruction struct {
	Op   Opcode
	Dst  Reg
	Src1 Reg
	Src2 Reg
	// Bytes is the encoded length of the instruction, used by the frontend
	// model (instruction-length predecoder, fetch bandwidth). Typical x86-64
	// instructions are 2-8 bytes.
	Bytes uint8
}

// String renders the instruction for debugging.
func (i Instruction) String() string {
	return fmt.Sprintf("%s %s, %s, %s (%dB)", i.Op, i.Dst, i.Src1, i.Src2, i.Bytes)
}

// BasicBlock is a static basic block: a straight-line sequence of
// instructions ending (optionally) in a branch. Workload programs are built
// from basic blocks; Decode translates each one exactly once into a
// DecodedBBL.
type BasicBlock struct {
	// ID uniquely identifies the static block within a workload (the
	// analogue of a Pin trace address).
	ID uint64
	// Addr is the simulated virtual address of the first instruction, used
	// for instruction-cache accesses.
	Addr uint64
	// Instrs are the instructions in program order.
	Instrs []Instruction
}

// Bytes returns the total encoded size of the block in bytes.
func (b *BasicBlock) Bytes() uint64 {
	var n uint64
	for _, ins := range b.Instrs {
		n += uint64(ins.Bytes)
	}
	return n
}
