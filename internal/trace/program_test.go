package trace

import (
	"fmt"
	"reflect"
	"runtime"
	"runtime/metrics"
	"slices"
	"testing"

	"zsim/internal/arena"
	"zsim/internal/isa"
)

// sameBlock reports how block d of p differs from block e of q: any exported
// field, or any of the four views the core models slice.
func sameBlock(p *isa.Program, d *isa.DecodedBBL, q *isa.Program, e *isa.DecodedBBL) string {
	dv, ev := reflect.ValueOf(*d), reflect.ValueOf(*e)
	for i := range dv.NumField() {
		if f := dv.Type().Field(i); f.IsExported() && dv.Field(i).Interface() != ev.Field(i).Interface() {
			return fmt.Sprintf("%s %v != %v", f.Name, dv.Field(i), ev.Field(i))
		}
	}
	switch {
	case !slices.Equal(p.Uops(d), q.Uops(e)):
		return "µops differ"
	case !slices.Equal(p.Tmpl(d), q.Tmpl(e)):
		return "templates differ"
	case !slices.Equal(p.MemOps(d), q.MemOps(e)):
		return "memory ops differ"
	case !slices.Equal(p.LiveOut(d), q.LiveOut(e)):
		return "live-outs differ"
	}
	return ""
}

// Every block of every registered workload's program, the spin block
// included, reads through the program's views exactly what isa.Decode gives
// the same instructions alone.
func TestProgramMatchesDecode(t *testing.T) {
	for _, name := range AllNames() {
		w := New(name, MustLookup(name), 1)
		i := 0
		for b := range staticCode(w.Params) {
			ref := isa.Decode(b)
			if diff := sameBlock(w.prog, &w.prog.Blocks[i], ref, &ref.Blocks[0]); diff != "" {
				t.Fatalf("%s: block %d: %s", name, b.ID, diff)
			}
			i++
		}
		if i != len(w.prog.Blocks) || w.spinBlock().ID != uint64(w.NumStaticBlocks()+1) {
			t.Fatalf("%s: the code yields %d blocks, the program holds %d", name, i, len(w.prog.Blocks))
		}
	}
}

// gccProgram translates gcc into a fresh arena.
func gccProgram() (*Workload, *arena.Arena) {
	a := arena.New()
	return NewIn(a, "gcc", MustLookup("gcc"), 1), a
}

// TestProgramBytesBounded bounds the arena bytes of gcc's translated program
// per static block. A block took 496 B (go1.24, linux/amd64) as a 176 B
// DecodedBBL with four slices from five arena takes, beside its source
// BasicBlock and instructions; as one 64 B entry indexing into four exactly
// sized program-wide arrays it takes 175 B. The budget is that figure plus
// 10%.
func TestProgramBytesBounded(t *testing.T) {
	const budget = 175 * 11 / 10
	w, a := gccProgram()
	_, bytes := a.Stats()
	if per := bytes / uint64(w.NumStaticBlocks()); per > budget {
		t.Fatalf("gcc's program takes %d B of arena per static block; budget is %d B", per, budget)
	}
}

// TestProgramScanBytesBounded bounds what the GC must scan of a translated
// gcc: the growth of /gc/scan/heap:bytes across NewIn. With a pointer to
// each DecodedBBL and BasicBlock and four slices in each it was 1,111,064 B
// (go1.24, linux/amd64). The five program arrays hold no pointer, so only
// the Workload and Program headers, a few hundred bytes, are left to scan,
// and the measured growth reads 0 (it is below the metric's run-to-run
// noise). The budget is 4 KiB: the headers and that noise, and a
// quarter-percent of the old figure.
func TestProgramScanBytesBounded(t *testing.T) {
	const budget = 4 << 10
	scan := []metrics.Sample{{Name: "/gc/scan/heap:bytes"}}
	least := ^uint64(0)
	for i := 0; i < 3; i++ {
		runtime.GC()
		metrics.Read(scan)
		before := scan[0].Value.Uint64()
		w, _ := gccProgram()
		runtime.GC()
		metrics.Read(scan)
		runtime.KeepAlive(w)
		if after := scan[0].Value.Uint64(); after > before {
			least = min(least, after-before)
		} else {
			least = 0
		}
	}
	if least > budget {
		t.Fatalf("translating gcc adds %d B of GC-scanned heap; budget is %d B", least, budget)
	}
}

// BenchmarkTranslate generates and translates gcc's static code into a fresh
// arena per op: what a program costs the first time a process runs it.
func BenchmarkTranslate(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		gccProgram()
	}
}
