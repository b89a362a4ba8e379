package isa

import (
	"math/bits"
	"strings"
	"testing"
	"testing/quick"

	"zsim/internal/arena"
)

func TestRegString(t *testing.T) {
	if RAX.String() != "rax" || RFlags.String() != "rflags" || XMM3.String() != "xmm3" {
		t.Fatalf("unexpected register names: %s %s %s", RAX, RFlags, XMM3)
	}
	if Reg(200).String() == "" {
		t.Fatalf("out-of-range register should still render")
	}
	if GPR(3) != RDX || GPR(19) != RDX {
		t.Fatalf("GPR indexing broken: %v %v", GPR(3), GPR(19))
	}
	if XMM(2) != XMM2 {
		t.Fatalf("XMM indexing broken: %v", XMM(2))
	}
}

func TestPortMask(t *testing.T) {
	m := PortsALU
	if !m.Has(0) || !m.Has(1) || !m.Has(5) || m.Has(2) {
		t.Fatalf("PortsALU mask wrong: %06b", m)
	}
	if bits.OnesCount8(uint8(m)) != 3 {
		t.Fatalf("PortsALU should have 3 ports, got %06b", m)
	}
	if PortsLoad != 1<<2 {
		t.Fatalf("PortsLoad wrong: %06b", PortsLoad)
	}
}

func TestUopTypeString(t *testing.T) {
	for ut := UopType(0); ut < NumUopTypes; ut++ {
		if ut.String() == "" || strings.HasPrefix(ut.String(), "Uop(") {
			t.Fatalf("uop type %d has no name", ut)
		}
	}
	if UopType(99).String() != "Uop(99)" {
		t.Fatalf("unknown uop type should use fallback")
	}
}

func TestOpcodePredicates(t *testing.T) {
	cases := []struct {
		op                Opcode
		branch, cond      bool
		hasLoad, hasStore bool
	}{
		{OpAdd, false, false, false, false},
		{OpLoad, false, false, true, false},
		{OpStore, false, false, false, true},
		{OpAddToMem, false, false, true, true},
		{OpJcc, true, true, false, false},
		{OpJmp, true, false, false, false},
		{OpCall, true, false, false, true},
		{OpRet, true, false, true, false},
		{OpCmpXchg, false, false, true, true},
	}
	for _, c := range cases {
		if c.op.IsBranch() != c.branch {
			t.Errorf("%s IsBranch = %v, want %v", c.op, c.op.IsBranch(), c.branch)
		}
		if c.op.IsConditional() != c.cond {
			t.Errorf("%s IsConditional = %v, want %v", c.op, c.op.IsConditional(), c.cond)
		}
		if c.op.HasLoad() != c.hasLoad {
			t.Errorf("%s HasLoad = %v, want %v", c.op, c.op.HasLoad(), c.hasLoad)
		}
		if c.op.HasStore() != c.hasStore {
			t.Errorf("%s HasStore = %v, want %v", c.op, c.op.HasStore(), c.hasStore)
		}
	}
}

func TestOpcodeString(t *testing.T) {
	for op := Opcode(0); op < NumOpcodes; op++ {
		if op.String() == "" {
			t.Fatalf("opcode %d has no name", op)
		}
	}
	if Opcode(250).String() != "op250" {
		t.Fatalf("unknown opcode fallback broken")
	}
}

func TestBasicBlockHelpers(t *testing.T) {
	b := &BasicBlock{
		ID:   1,
		Addr: 0x4000,
		Instrs: []Instruction{
			{Op: OpLoad, Dst: RAX, Src1: RBP, Bytes: 4},
			{Op: OpAdd, Dst: RBX, Src1: RAX, Src2: RBX, Bytes: 3},
			{Op: OpJcc, Bytes: 2},
		},
	}
	if b.NumInstrs() != 3 {
		t.Fatalf("NumInstrs: %d", b.NumInstrs())
	}
	if b.Bytes() != 9 {
		t.Fatalf("Bytes: %d", b.Bytes())
	}
	if !b.EndsInBranch() {
		t.Fatalf("block should end in branch")
	}
	empty := &BasicBlock{}
	if empty.EndsInBranch() {
		t.Fatalf("empty block should not end in branch")
	}
}

func TestDecodeSimpleALU(t *testing.T) {
	b := &BasicBlock{ID: 1, Instrs: []Instruction{
		{Op: OpAdd, Dst: RAX, Src1: RAX, Src2: RBX, Bytes: 3},
	}}
	d := Decode(b)
	if len(d.Uops) != 1 {
		t.Fatalf("add should decode to 1 uop, got %d", len(d.Uops))
	}
	u := d.Uops[0]
	if u.Type != UopExec || u.Dst1 != RAX || u.Dst2 != RFlags || u.Lat != 1 {
		t.Fatalf("bad add decoding: %v", u)
	}
	if d.Instrs != 1 || d.Loads != 0 || d.Stores != 0 || d.Branches != 0 {
		t.Fatalf("bad counts: %+v", d)
	}
}

func TestDecodeStoreFission(t *testing.T) {
	b := &BasicBlock{ID: 2, Instrs: []Instruction{
		{Op: OpStore, Dst: RDX, Src1: RBP, Bytes: 4},
	}}
	d := Decode(b)
	if len(d.Uops) != 2 {
		t.Fatalf("store should decode to StAddr+StData, got %d uops", len(d.Uops))
	}
	if d.Uops[0].Type != UopStAddr || d.Uops[1].Type != UopStData {
		t.Fatalf("bad store fission: %v %v", d.Uops[0], d.Uops[1])
	}
	if d.Uops[0].MemSlot != d.Uops[1].MemSlot {
		t.Fatalf("StAddr and StData must share a memory slot")
	}
	if d.Stores != 1 {
		t.Fatalf("store count: %d", d.Stores)
	}
}

func TestDecodeLoadOpFission(t *testing.T) {
	b := &BasicBlock{ID: 3, Instrs: []Instruction{
		{Op: OpAddMem, Dst: RAX, Src1: RAX, Src2: RBP, Bytes: 4},
	}}
	d := Decode(b)
	if len(d.Uops) != 2 {
		t.Fatalf("load-op should decode to 2 uops, got %d", len(d.Uops))
	}
	if d.Uops[0].Type != UopLoad || d.Uops[1].Type != UopExec {
		t.Fatalf("bad load-op fission")
	}
	if d.Loads != 1 {
		t.Fatalf("load count: %d", d.Loads)
	}
}

func TestDecodeRMW(t *testing.T) {
	b := &BasicBlock{ID: 4, Instrs: []Instruction{
		{Op: OpAddToMem, Dst: RegZero, Src1: RBP, Src2: RAX, Bytes: 4},
	}}
	d := Decode(b)
	if len(d.Uops) != 4 {
		t.Fatalf("RMW should decode to 4 uops, got %d", len(d.Uops))
	}
	if d.Loads != 1 || d.Stores != 1 {
		t.Fatalf("RMW should have 1 load and 1 store: %+v", d)
	}
	// Load and store must target the same memory slot (same address).
	if d.Uops[0].MemSlot != d.Uops[2].MemSlot {
		t.Fatalf("RMW load and store should share a memory slot")
	}
}

func TestDecodeMacroFusion(t *testing.T) {
	b := &BasicBlock{ID: 5, Instrs: []Instruction{
		{Op: OpCmp, Src1: RAX, Src2: RBX, Bytes: 3},
		{Op: OpJcc, Bytes: 2},
	}}
	d := Decode(b)
	if len(d.Uops) != 1 {
		t.Fatalf("cmp+jcc should macro-fuse into 1 uop, got %d", len(d.Uops))
	}
	if d.Uops[0].Type != UopBranch {
		t.Fatalf("fused uop should be a branch")
	}
	if d.Instrs != 2 {
		t.Fatalf("fused pair still counts as 2 instructions, got %d", d.Instrs)
	}
	if !d.CondBranch || d.Branches != 1 {
		t.Fatalf("fusion should record a conditional branch: %+v", d)
	}
}

func TestDecodeNoFusionWithoutJcc(t *testing.T) {
	b := &BasicBlock{ID: 6, Instrs: []Instruction{
		{Op: OpCmp, Src1: RAX, Src2: RBX, Bytes: 3},
		{Op: OpAdd, Dst: RAX, Src1: RAX, Src2: RBX, Bytes: 3},
	}}
	d := Decode(b)
	if len(d.Uops) != 2 {
		t.Fatalf("cmp+add should not fuse, got %d uops", len(d.Uops))
	}
}

func TestDecodeCallRet(t *testing.T) {
	call := Decode(&BasicBlock{ID: 7, Instrs: []Instruction{{Op: OpCall, Bytes: 5}}})
	if call.Stores != 1 || call.Branches != 1 {
		t.Fatalf("call should store a return address and branch: %+v", call)
	}
	ret := Decode(&BasicBlock{ID: 8, Instrs: []Instruction{{Op: OpRet, Bytes: 1}}})
	if ret.Loads != 1 || ret.Branches != 1 {
		t.Fatalf("ret should load the return address and branch: %+v", ret)
	}
	if ret.CondBranch || call.CondBranch {
		t.Fatalf("call/ret are unconditional")
	}
}

func TestDecodeAtomics(t *testing.T) {
	d := Decode(&BasicBlock{ID: 9, Instrs: []Instruction{
		{Op: OpCmpXchg, Dst: RAX, Src1: RBP, Src2: RBX, Bytes: 5},
	}})
	if d.Loads != 1 || d.Stores != 1 {
		t.Fatalf("cmpxchg should load and store: %+v", d)
	}
	var hasFence bool
	for _, u := range d.Uops {
		if u.Type == UopFence {
			hasFence = true
		}
	}
	if !hasFence {
		t.Fatalf("locked RMW should include a fence uop")
	}
}

func TestDecodeComplexApprox(t *testing.T) {
	d := Decode(&BasicBlock{ID: 10, Instrs: []Instruction{
		{Op: OpComplex, Dst: RAX, Src1: RBX, Bytes: 6},
	}})
	if !d.Approx {
		t.Fatalf("complex instructions should be marked approximate")
	}
}

func TestDecodeCyclesPositive(t *testing.T) {
	var instrs []Instruction
	for i := 0; i < 12; i++ {
		instrs = append(instrs, Instruction{Op: OpAdd, Dst: RAX, Src1: RAX, Src2: RBX, Bytes: 3})
	}
	d := Decode(&BasicBlock{ID: 11, Instrs: instrs})
	// 12 single-uop instructions on a 4-wide decoder need at least 3 cycles.
	if d.DecodeCycles < 3 {
		t.Fatalf("decode cycles too low: %d", d.DecodeCycles)
	}
}

func TestDecodeCyclesPredecodeBound(t *testing.T) {
	// 4 instructions of 8 bytes = 32 bytes = 2 predecode cycles minimum,
	// but they fit in 1 decode cycle; the frontend takes the max.
	var instrs []Instruction
	for i := 0; i < 4; i++ {
		instrs = append(instrs, Instruction{Op: OpMovRR, Dst: RAX, Src1: RBX, Bytes: 8})
	}
	d := Decode(&BasicBlock{ID: 12, Instrs: instrs})
	if d.DecodeCycles != 2 {
		t.Fatalf("predecoder should bound decode cycles at 2, got %d", d.DecodeCycles)
	}
}

func TestUopAndInstructionString(t *testing.T) {
	u := Uop{Type: UopLoad, Src1: RBP, Dst1: RCX, Lat: 4, Ports: PortsLoad}
	if !strings.Contains(u.String(), "Load") {
		t.Fatalf("uop string: %s", u.String())
	}
	ins := Instruction{Op: OpLoad, Dst: RCX, Src1: RBP, Bytes: 4}
	if !strings.Contains(ins.String(), "load") {
		t.Fatalf("instruction string: %s", ins.String())
	}
}

// Property: every decoded block has consistent counts — loads equal the
// number of Load µops, stores equal StData µops, every memory µop has a valid
// slot, and every non-memory µop has slot -1.
func TestDecodeInvariants(t *testing.T) {
	ops := []Opcode{
		OpNop, OpMovRR, OpLoad, OpStore, OpAdd, OpAddMem, OpAddToMem, OpLea,
		OpMul, OpDiv, OpCmp, OpCmpMem, OpTest, OpJcc, OpJmp, OpCall, OpRet,
		OpPush, OpPop, OpFAdd, OpFMul, OpFDiv, OpFMA, OpFLoad, OpFStore,
		OpXchg, OpCmpXchg, OpFence, OpRdtsc, OpComplex,
	}
	f := func(sel []uint8) bool {
		if len(sel) == 0 || len(sel) > 40 {
			return true
		}
		b := &BasicBlock{ID: 999}
		for _, s := range sel {
			op := ops[int(s)%len(ops)]
			b.Instrs = append(b.Instrs, Instruction{
				Op: op, Dst: GPR(int(s)), Src1: GPR(int(s) + 1), Src2: GPR(int(s) + 2), Bytes: 3,
			})
		}
		d := Decode(b)
		loads, stores, branches := 0, 0, 0
		maxSlot := int8(-1)
		for _, u := range d.Uops {
			switch u.Type {
			case UopLoad:
				loads++
			case UopStData:
				stores++
			case UopBranch:
				branches++
			}
			isMem := u.Type == UopLoad || u.Type == UopStAddr || u.Type == UopStData
			if isMem && u.MemSlot < 0 {
				return false
			}
			if !isMem && u.MemSlot != -1 {
				return false
			}
			if u.MemSlot > maxSlot {
				maxSlot = u.MemSlot
			}
			if u.Ports == 0 {
				return false // every uop must have at least one feasible port
			}
		}
		if loads != d.Loads || stores != d.Stores || branches != d.Branches {
			return false
		}
		if d.Instrs < len(b.Instrs) {
			return false
		}
		if len(b.Instrs) > 0 && d.DecodeCycles == 0 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: decoding is deterministic — the same block always yields the same
// µop sequence.
func TestDecodeDeterministic(t *testing.T) {
	f := func(sel []uint8) bool {
		if len(sel) == 0 || len(sel) > 20 {
			return true
		}
		b := &BasicBlock{ID: 1}
		for _, s := range sel {
			b.Instrs = append(b.Instrs, Instruction{
				Op: Opcode(s % uint8(NumOpcodes)), Dst: GPR(int(s)), Src1: GPR(int(s) + 3), Bytes: 1 + s%7,
			})
		}
		d1 := Decode(b)
		d2 := Decode(b)
		if len(d1.Uops) != len(d2.Uops) || d1.DecodeCycles != d2.DecodeCycles {
			return false
		}
		for i := range d1.Uops {
			if d1.Uops[i] != d2.Uops[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestUopSlotsMatchDecode pins the static µop-slot table to decodeOne: every
// opcode's table entry must equal the number of µops decodeOne actually
// emits (the table exists so frontend modeling and arena sizing never call
// decodeOne with a throwaway slice).
func TestUopSlotsMatchDecode(t *testing.T) {
	for op := Opcode(0); op < NumOpcodes; op++ {
		ins := Instruction{Op: op, Dst: RAX, Src1: RBX, Src2: RCX, Bytes: 4}
		var memSlot int8
		want := len(decodeOne(ins, &memSlot, nil))
		if got := uopSlots(ins); got != want {
			t.Fatalf("uopSlots(%s) = %d, decodeOne emits %d", op, got, want)
		}
	}
}

// TestDecodeInMatchesDecode checks the arena path produces the same decoded
// block as the heap path.
func TestDecodeInMatchesDecode(t *testing.T) {
	b := &BasicBlock{ID: 7, Addr: 0x400000}
	for op := Opcode(0); op < NumOpcodes; op++ {
		b.Instrs = append(b.Instrs, Instruction{Op: op, Dst: RAX, Src1: RBX, Src2: RCX, Bytes: 3})
	}
	heap := Decode(b)
	ar := DecodeIn(arena.New(), b)
	if len(heap.Uops) != len(ar.Uops) || heap.Instrs != ar.Instrs ||
		heap.DecodeCycles != ar.DecodeCycles || heap.Loads != ar.Loads ||
		heap.Stores != ar.Stores || heap.Branches != ar.Branches {
		t.Fatalf("arena decode differs from heap decode:\nheap %+v\narena %+v", heap, ar)
	}
	for i := range heap.Tmpl {
		if heap.Tmpl[i] != ar.Tmpl[i] {
			t.Fatalf("template differs at µop %d: %+v vs %+v", i, heap.Tmpl[i], ar.Tmpl[i])
		}
	}
	if len(heap.MemOps) != len(ar.MemOps) || len(heap.LiveOut) != len(ar.LiveOut) {
		t.Fatalf("memops/liveout lengths differ")
	}
}
