// Package isa defines the simulated instruction set, its µop decomposition,
// and the decoded-basic-block representation that drives the instruction-
// driven core timing models.
//
// The original zsim uses Pin to dynamically translate native x86 binaries and
// XED2 to decode instructions into µops at instrumentation time, caching the
// result per static basic block. Go cannot host a dynamic binary
// instrumentation engine (the runtime and garbage collector clash with code
// injection), so this package substitutes a synthetic x86-like ISA: workload
// generators (package trace) emit static basic blocks of Instructions, and
// Translate decodes a program's blocks exactly once into a Program — the
// same artifact zsim's instrumentation phase produces: µop types, feasible
// execution ports, register dependencies, latencies, frontend
// (predecoder/decoder) stall cycles, and memory-operand slots. A Program is
// five flat, exactly sized, pointer-free arrays: one 64 B DecodedBBL per
// block, indexing by offset and count into the program-wide µops, timing
// templates, memory ops and live-out writes. Decode is the one-block
// reference translation.
//
// The key property the paper relies on — decoding work is paid once per
// static block instead of once per dynamic instruction — is preserved: each
// trace.Workload translates its static code once, when it is built, and
// every dynamic execution shares the result. The source BasicBlocks do not
// outlive translation.
package isa

import "fmt"

// Reg identifies an architectural register of the simulated ISA. The register
// file follows x86-64: 16 general-purpose registers, 16 vector registers, the
// flags register and the instruction pointer. Register 0 (RegZero) is a
// pseudo-register meaning "no operand".
type Reg uint8

// Architectural registers.
const (
	RegZero Reg = iota // no register / unused operand slot
	RAX
	RBX
	RCX
	RDX
	RSI
	RDI
	RBP
	RSP
	R8
	R9
	R10
	R11
	R12
	R13
	R14
	R15
	RFlags
	RIP
	XMM0
	XMM1
	XMM2
	XMM3
	XMM4
	XMM5
	XMM6
	XMM7
	XMM8
	XMM9
	XMM10
	XMM11
	XMM12
	XMM13
	XMM14
	XMM15
	NumRegs // total number of architectural registers
)

// String returns the register's assembly-style name.
func (r Reg) String() string {
	names := [...]string{
		"none", "rax", "rbx", "rcx", "rdx", "rsi", "rdi", "rbp", "rsp",
		"r8", "r9", "r10", "r11", "r12", "r13", "r14", "r15",
		"rflags", "rip",
		"xmm0", "xmm1", "xmm2", "xmm3", "xmm4", "xmm5", "xmm6", "xmm7",
		"xmm8", "xmm9", "xmm10", "xmm11", "xmm12", "xmm13", "xmm14", "xmm15",
	}
	if int(r) < len(names) {
		return names[r]
	}
	return fmt.Sprintf("reg%d", uint8(r))
}

// GPR returns the i-th general-purpose register (i in [0,16)).
func GPR(i int) Reg { return RAX + Reg(i%16) }

// XMM returns the i-th vector register (i in [0,16)).
func XMM(i int) Reg { return XMM0 + Reg(i%16) }

// UopType classifies a µop for the timing models. It matches the µop classes
// in Figure 1 of the paper (Load, Exec, StAddr, StData) plus fences and
// branches, which the OOO model treats specially.
type UopType uint8

const (
	UopExec   UopType = iota // ALU/FP/SIMD execution µop
	UopLoad                  // memory load
	UopStAddr                // store address generation
	UopStData                // store data
	UopBranch                // conditional or unconditional branch (executes on the branch port)
	UopFence                 // memory fence / serializing µop
	NumUopTypes
)

// String returns a short mnemonic for the µop type.
func (t UopType) String() string {
	switch t {
	case UopExec:
		return "Exec"
	case UopLoad:
		return "Load"
	case UopStAddr:
		return "StAddr"
	case UopStData:
		return "StData"
	case UopBranch:
		return "Branch"
	case UopFence:
		return "Fence"
	default:
		return fmt.Sprintf("Uop(%d)", uint8(t))
	}
}

// PortMask is a bitmask of the execution ports a µop may issue to. The
// modeled core has six execution ports, following Westmere:
//
//	port 0: ALU, FP multiply, divide, branch (shared)
//	port 1: ALU, FP add
//	port 2: load
//	port 3: store address
//	port 4: store data
//	port 5: ALU, branch
type PortMask uint8

// Execution port masks.
const (
	Port0 PortMask = 1 << iota
	Port1
	Port2
	Port3
	Port4
	Port5

	// NumPorts is the number of execution ports in the modeled core.
	NumPorts = 6

	// PortsALU are the ports that can execute simple integer µops.
	PortsALU = Port0 | Port1 | Port5
	// PortsFPAdd is the FP/SIMD add port.
	PortsFPAdd = Port1
	// PortsFPMul is the FP/SIMD multiply/divide port.
	PortsFPMul = Port0
	// PortsLoad is the load port.
	PortsLoad = Port2
	// PortsStAddr is the store-address port.
	PortsStAddr = Port3
	// PortsStData is the store-data port.
	PortsStData = Port4
	// PortsBranch are the ports that can execute branches.
	PortsBranch = Port5 | Port0
)

// Has reports whether the mask includes port p (0-based).
func (m PortMask) Has(p int) bool { return m&(1<<uint(p)) != 0 }

// Uop is a single micro-operation in the format the timing models consume,
// mirroring the decoded-µop table in Figure 1 of the paper: type, up to two
// source registers, up to two destination registers, latency, and the set of
// feasible execution ports. Memory µops (Load/StAddr) reference a memory
// operand slot in the parent instruction; the dynamic address is supplied by
// the workload trace at simulation time.
type Uop struct {
	Type    UopType
	Src1    Reg
	Src2    Reg
	Dst1    Reg
	Dst2    Reg
	Lat     uint16   // execution latency in cycles (0 for StData)
	Ports   PortMask // feasible execution ports
	MemSlot int8     // index of the memory operand in the instruction, -1 if none
}

// String renders the µop in a table-like format for debugging.
func (u Uop) String() string {
	return fmt.Sprintf("%-6s src=%s,%s dst=%s,%s lat=%d ports=%06b",
		u.Type, u.Src1, u.Src2, u.Dst1, u.Dst2, u.Lat, u.Ports)
}
