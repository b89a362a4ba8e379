package isa

import (
	"fmt"
	"math/bits"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"

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
		cond              bool
		hasLoad, hasStore bool
	}{
		{OpAdd, false, false, false},
		{OpLoad, false, true, false},
		{OpStore, false, false, true},
		{OpAddToMem, false, true, true},
		{OpJcc, true, false, false},
		{OpJmp, false, false, false},
		{OpCall, false, false, true},
		{OpRet, false, true, false},
		{OpCmpXchg, false, true, true},
	}
	for _, c := range cases {
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
	if len(b.Instrs) != 3 {
		t.Fatalf("len(Instrs): %d", len(b.Instrs))
	}
	if b.Bytes() != 9 {
		t.Fatalf("Bytes: %d", b.Bytes())
	}
	if b.Instrs[len(b.Instrs)-1].Op != OpJcc {
		t.Fatalf("block should end in branch")
	}
}

func TestDecodeSimpleALU(t *testing.T) {
	b := &BasicBlock{ID: 1, Instrs: []Instruction{
		{Op: OpAdd, Dst: RAX, Src1: RAX, Src2: RBX, Bytes: 3},
	}}
	d, uops := decode1(b)
	if len(uops) != 1 {
		t.Fatalf("add should decode to 1 uop, got %d", len(uops))
	}
	u := uops[0]
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
	d, uops := decode1(b)
	if len(uops) != 2 {
		t.Fatalf("store should decode to StAddr+StData, got %d uops", len(uops))
	}
	if uops[0].Type != UopStAddr || uops[1].Type != UopStData {
		t.Fatalf("bad store fission: %v %v", uops[0], uops[1])
	}
	if uops[0].MemSlot != uops[1].MemSlot {
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
	d, uops := decode1(b)
	if len(uops) != 2 {
		t.Fatalf("load-op should decode to 2 uops, got %d", len(uops))
	}
	if uops[0].Type != UopLoad || uops[1].Type != UopExec {
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
	d, uops := decode1(b)
	if len(uops) != 4 {
		t.Fatalf("RMW should decode to 4 uops, got %d", len(uops))
	}
	if d.Loads != 1 || d.Stores != 1 {
		t.Fatalf("RMW should have 1 load and 1 store: %+v", d)
	}
	// Load and store must target the same memory slot (same address).
	if uops[0].MemSlot != uops[2].MemSlot {
		t.Fatalf("RMW load and store should share a memory slot")
	}
}

func TestDecodeMacroFusion(t *testing.T) {
	b := &BasicBlock{ID: 5, Instrs: []Instruction{
		{Op: OpCmp, Src1: RAX, Src2: RBX, Bytes: 3},
		{Op: OpJcc, Bytes: 2},
	}}
	d, uops := decode1(b)
	if len(uops) != 1 {
		t.Fatalf("cmp+jcc should macro-fuse into 1 uop, got %d", len(uops))
	}
	if uops[0].Type != UopBranch {
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
	_, uops := decode1(b)
	if len(uops) != 2 {
		t.Fatalf("cmp+add should not fuse, got %d uops", len(uops))
	}
}

func TestDecodeCallRet(t *testing.T) {
	call, _ := decode1(&BasicBlock{ID: 7, Instrs: []Instruction{{Op: OpCall, Bytes: 5}}})
	if call.Stores != 1 || call.Branches != 1 {
		t.Fatalf("call should store a return address and branch: %+v", call)
	}
	ret, _ := decode1(&BasicBlock{ID: 8, Instrs: []Instruction{{Op: OpRet, Bytes: 1}}})
	if ret.Loads != 1 || ret.Branches != 1 {
		t.Fatalf("ret should load the return address and branch: %+v", ret)
	}
	if ret.CondBranch || call.CondBranch {
		t.Fatalf("call/ret are unconditional")
	}
}

func TestDecodeAtomics(t *testing.T) {
	d, uops := decode1(&BasicBlock{ID: 9, Instrs: []Instruction{
		{Op: OpCmpXchg, Dst: RAX, Src1: RBP, Src2: RBX, Bytes: 5},
	}})
	if d.Loads != 1 || d.Stores != 1 {
		t.Fatalf("cmpxchg should load and store: %+v", d)
	}
	var hasFence bool
	for _, u := range uops {
		if u.Type == UopFence {
			hasFence = true
		}
	}
	if !hasFence {
		t.Fatalf("locked RMW should include a fence uop")
	}
}

func TestDecodeComplexApprox(t *testing.T) {
	d, _ := decode1(&BasicBlock{ID: 10, Instrs: []Instruction{
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
	d, _ := decode1(&BasicBlock{ID: 11, Instrs: instrs})
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
	d, _ := decode1(&BasicBlock{ID: 12, Instrs: instrs})
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
		d, uops := decode1(b)
		loads, stores, branches := 0, 0, 0
		maxSlot := int8(-1)
		for _, u := range uops {
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
		if loads != int(d.Loads) || stores != int(d.Stores) || branches != int(d.Branches) {
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
		d1, u1 := decode1(b)
		d2, u2 := decode1(b)
		if len(u1) != len(u2) || d1.DecodeCycles != d2.DecodeCycles {
			return false
		}
		for i := range u1 {
			if u1[i] != u2[i] {
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

// decode1 decodes one block and returns its DecodedBBL and µops.
func decode1(b *BasicBlock) (*DecodedBBL, []Uop) {
	p := Decode(b)
	d := &p.Blocks[0]
	return d, p.Uops(d)
}

// pointerFree reports the path of the first pointer-holding part of t ("" if
// none): the GC scans no array of a pointer-free type.
func pointerFree(t reflect.Type, path string) string {
	switch t.Kind() {
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
		reflect.Float32, reflect.Float64:
		return ""
	case reflect.Array:
		return pointerFree(t.Elem(), path+"[]")
	case reflect.Struct:
		for i := range t.NumField() {
			if p := pointerFree(t.Field(i).Type, path+"."+t.Field(i).Name); p != "" {
				return p
			}
		}
		return ""
	}
	return path + " (" + t.Kind().String() + ")"
}

// A decoded block fills at most one 64 B host line and, like the entries of
// the program's four other arrays, holds no pointer: a translated program is
// five arrays the GC never scans.
func TestDecodedLayout(t *testing.T) {
	if n := unsafe.Sizeof(DecodedBBL{}); n > 64 {
		t.Fatalf("DecodedBBL is %d bytes, want at most 64", n)
	}
	for _, v := range []any{DecodedBBL{}, Uop{}, UopTmpl{}, MemOp{}, RegWrite{}} {
		typ := reflect.TypeOf(v)
		if p := pointerFree(typ, typ.Name()); p != "" {
			t.Fatalf("%s holds a pointer at %s", typ.Name(), p)
		}
	}
}

// sameBlock reports how block d of p differs from block e of q: any exported
// field, or any of the four views the core models slice.
func sameBlock(p *Program, d *DecodedBBL, q *Program, e *DecodedBBL) string {
	dv, ev := reflect.ValueOf(*d), reflect.ValueOf(*e)
	for i := range dv.NumField() {
		if f := dv.Type().Field(i); f.IsExported() && dv.Field(i).Interface() != ev.Field(i).Interface() {
			return fmt.Sprintf("%s %v != %v", f.Name, dv.Field(i), ev.Field(i))
		}
	}
	switch {
	case !slices.Equal(p.Uops(d), q.Uops(e)):
		return fmt.Sprintf("µops %v != %v", p.Uops(d), q.Uops(e))
	case !slices.Equal(p.Tmpl(d), q.Tmpl(e)):
		return fmt.Sprintf("templates %v != %v", p.Tmpl(d), q.Tmpl(e))
	case !slices.Equal(p.MemOps(d), q.MemOps(e)):
		return fmt.Sprintf("memory ops %v != %v", p.MemOps(d), q.MemOps(e))
	case !slices.Equal(p.LiveOut(d), q.LiveOut(e)):
		return fmt.Sprintf("live-outs %v != %v", p.LiveOut(d), q.LiveOut(e))
	}
	return ""
}

// Translating many blocks into one program, on an arena or the heap, gives
// each block exactly what Decode gives it alone, and takes each of the five
// arrays once, at its exact size.
func TestTranslateMatchesDecode(t *testing.T) {
	var blocks []*BasicBlock
	addr := uint64(0x400000)
	for op := Opcode(0); op < NumOpcodes; op++ {
		b := &BasicBlock{ID: uint64(op) + 1, Addr: addr}
		for i := range 1 + int(op)%5 {
			b.Instrs = append(b.Instrs, Instruction{Op: (op + Opcode(i)) % NumOpcodes, Dst: GPR(i), Src1: GPR(i + 1), Src2: GPR(i + 2), Bytes: 3})
		}
		b.Instrs = append(b.Instrs, Instruction{Op: OpCmp, Src1: RAX, Src2: RBX, Bytes: 3}, Instruction{Op: OpJcc, Bytes: 2})
		blocks = append(blocks, b)
		addr += b.Bytes()
	}
	code := func(yield func(*BasicBlock) bool) {
		for _, b := range blocks {
			if !yield(b) {
				return
			}
		}
	}
	a := arena.New()
	for _, p := range []*Program{Translate(nil, code), Translate(a, code)} {
		if len(p.Blocks) != len(blocks) {
			t.Fatalf("%d blocks, want %d", len(p.Blocks), len(blocks))
		}
		for i, b := range blocks {
			ref := Decode(b)
			if diff := sameBlock(p, &p.Blocks[i], ref, &ref.Blocks[0]); diff != "" {
				t.Fatalf("block %d: %s", b.ID, diff)
			}
		}
		for name, exact := range map[string]bool{
			"blocks":   len(p.Blocks) == cap(p.Blocks),
			"µops":     len(p.uops) == cap(p.uops),
			"template": len(p.tmpl) == cap(p.tmpl),
			"mem ops":  len(p.memOps) == cap(p.memOps),
			"liveout":  len(p.liveOut) == cap(p.liveOut),
		} {
			if !exact {
				t.Errorf("the %s array has spare capacity", name)
			}
		}
	}
	if chunks, _ := a.Stats(); chunks != 5 {
		t.Fatalf("translation into a fresh arena took %d chunks, want 5", chunks)
	}
}

// Code that yields different blocks on Translate's second pass would leave
// the exactly sized arrays short or spill them, so Translate refuses it.
func TestTranslateRejectsUnstableCode(t *testing.T) {
	calls := 0
	code := func(yield func(*BasicBlock) bool) {
		calls++
		for range calls {
			if !yield(&BasicBlock{Instrs: []Instruction{{Op: OpAdd, Dst: RAX, Src1: RAX, Bytes: 3}}}) {
				return
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Translate accepted code whose passes differ")
		}
	}()
	Translate(nil, code)
}
