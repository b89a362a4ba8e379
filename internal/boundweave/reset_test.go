package boundweave

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"zsim/internal/bpred"
	"zsim/internal/config"
	"zsim/internal/runctl"
	"zsim/internal/trace"
	"zsim/internal/virt"
)

// resetSkip lists the only state TestResetMatchesFresh does not compare,
// keyed by type ("pkg.Type") or struct field ("pkg.Type.field"). Everything
// else a simulator can reach must equal a fresh build after Reset.
var resetSkip = map[string]string{
	"arena.Arena":       "construction arena: owns the components' storage and keeps its chunks warm",
	"engine.Pool":       "worker pool: round generation and worker slots, no simulated state",
	"event.Slab.chunks": "event chunks: capacity; Slab.Reset rewinds the fill cursor that reads them",
}

// TestResetMatchesFresh proves that Reset is a fresh build: a simulator that
// ran, whose scheduler was then Reset and which was Reset itself, must equal
// field by field a newly built System, Scheduler and Simulator given the same
// options. The walk reaches everything through the Simulator (its System and
// Scheduler included) and fails on any field that differs, so state a future
// change adds is covered without being listed.
func TestResetMatchesFresh(t *testing.T) {
	cases := []struct {
		name    string
		cfg     func(*config.System)
		threads int // 0: two more threads than cores
	}{
		{"ipc1-no-contention", func(c *config.System) {}, 0},
		{"ipc1-simple-ddr3", func(c *config.System) { c.Contention = true }, 0},
		{"ooo-md1-cycle-driven", func(c *config.System) {
			c.Contention = true
			c.CoreModel = config.CoreOOO
			c.MemModel = config.MemMD1
			c.WeaveMem = config.WeaveMemCycleDriven
		}, 0},
		{"ipc1-mesh-noc", func(c *config.System) {
			c.Contention = true
			c.Network = config.NetMesh // 4 single-core tiles -> a 2x2 mesh
			c.NetRouterStage = 1
			c.NOCContention = true
			c.NOCLinkBytes = 4 // 18-flit packets: ports back up under load
		}, 0},
		// One thread on four cores: the cores that never ran hold no
		// predictor table or OOO window, in the used and the fresh build.
		{"ipc1-one-thread", func(c *config.System) { c.Contention = true }, 1},
		{"ooo-one-thread", func(c *config.System) {
			c.Contention = true
			c.CoreModel = config.CoreOOO
		}, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			build := func() *System {
				cfg := config.SmallTest()
				tc.cfg(cfg)
				sys, err := BuildSystem(cfg)
				if err != nil {
					t.Fatal(err)
				}
				return sys
			}
			prof := NewInterferenceProfiler()
			opts := Options{HostThreads: 2, Seed: 7, MaxCycles: 1 << 40, Profiler: prof}

			used := build()
			usedSched := virt.NewScheduler(len(used.Cores))
			p := trace.DefaultParams()
			p.BlocksPerThread = 200
			p.WorkingSet = 1 << 18
			p.LockEvery = 16
			p.BlockedSyscallEvery = 48
			threads := tc.threads
			if threads == 0 {
				threads = len(used.Cores) + 2
			}
			usedSched.AddWorkload(trace.New("reset", p, threads))
			usedSim := NewSimulator(used, usedSched, Options{HostThreads: opts.HostThreads, Seed: 3})
			if usedSim.Run() == 0 || usedSim.Reason != runctl.ReasonNone {
				t.Fatalf("run: reason %v", usedSim.Reason)
			}
			idle := 0
			for _, c := range used.Cores {
				if c.Instrs() == 0 {
					idle++
				}
			}
			if want := threads < len(used.Cores); (idle > 0) != want {
				t.Fatalf("%d of %d cores never ran with %d threads", idle, len(used.Cores), threads)
			}
			usedSched.Reset()
			if err := usedSim.Reset(opts); err != nil {
				t.Fatal(err)
			}

			fresh := build()
			freshSim := NewSimulator(fresh, virt.NewScheduler(len(fresh.Cores)), opts)

			w := resetWalker{seen: map[resetVisit]bool{}}
			w.walk("Simulator", reflect.ValueOf(freshSim), reflect.ValueOf(usedSim))
			if n := len(w.diffs); n > 0 {
				t.Fatalf("reset simulator differs from a fresh one in %d place(s), first %d:\n  %s",
					n, min(n, 20), strings.Join(w.diffs[:min(n, 20)], "\n  "))
			}
		})
	}
}

// The walker's nil-slice rule admits only zeroed tables: a reset predictor
// equals one that was never used, and one non-zero counter in it is still a
// difference, whichever side is the fresh one.
func TestResetWalkerNilSlice(t *testing.T) {
	walk := func(fresh, reset *bpred.TwoLevel) []string {
		w := resetWalker{seen: map[resetVisit]bool{}}
		w.walk("TwoLevel", reflect.ValueOf(fresh), reflect.ValueOf(reset))
		return w.diffs
	}
	unused, used := new(bpred.TwoLevel), new(bpred.TwoLevel)
	for i := uint64(0); i < 64; i++ {
		used.PredictAndUpdate(i*4, i%3 == 0)
	}
	used.Reset()
	if d := walk(unused, used); len(d) != 0 {
		t.Fatalf("a reset predictor differs from an unused one: %v", d)
	}
	// A not-taken branch moves one counter and leaves the history at 0.
	used.PredictAndUpdate(0x40, false)
	for _, d := range [][]string{walk(unused, used), walk(used, unused)} {
		if len(d) != 1 || !strings.HasPrefix(d[0], "TwoLevel.table[") {
			t.Fatalf("one non-zero counter in a reset table: got diffs %v, want exactly one in the table", d)
		}
	}
}

// The walker sees a rewound line slab's blocks: a reset chip's chunks hold
// zero words, which equal the nil chunks of a fresh chip, and one non-zero
// word left anywhere in them is exactly one difference, whichever side is
// the fresh one. The run before takes every set's ways through the bound workers' own
// cursors, never the shared one.
func TestResetWalkerSlab(t *testing.T) {
	build := func() *System {
		sys, err := BuildSystem(config.SmallTest())
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}
	opts := Options{HostThreads: 2, Seed: 1}
	used := build()
	sched := virt.NewScheduler(len(used.Cores))
	p := trace.DefaultParams()
	p.BlocksPerThread = 100
	sched.AddWorkload(trace.New("slab", p, len(used.Cores)))
	usedSim := NewSimulator(used, sched, opts)
	if usedSim.Run() == 0 || usedSim.Reason != runctl.ReasonNone {
		t.Fatalf("run: reason %v", usedSim.Reason)
	}
	slab := reflect.ValueOf(used.L2[0]).Elem().FieldByName("slab").Elem()
	if shared := slab.FieldByName("shared"); shared.FieldByName("end").Uint() != 0 {
		t.Fatalf("the bound phase took lines through the shared cursor")
	}
	sched.Reset()
	if err := usedSim.Reset(opts); err != nil {
		t.Fatal(err)
	}
	fresh := build()
	freshSim := NewSimulator(fresh, virt.NewScheduler(len(fresh.Cores)), opts)

	walk := func(fresh, reset *Simulator) []string {
		w := resetWalker{seen: map[resetVisit]bool{}}
		w.walk("Simulator", reflect.ValueOf(fresh), reflect.ValueOf(reset))
		return w.diffs
	}
	if d := walk(freshSim, usedSim); len(d) != 0 {
		t.Fatalf("a reset chip differs from a fresh one: %v", d)
	}
	// Plant a valid way's key in the last word of the first chunk the run
	// took.
	chunks := slab.FieldByName("chunks")
	chunkWords := 1 << slab.FieldByName("shift").Uint()
	planted := false
	for i := 0; i < chunks.Len() && !planted; i++ {
		if chunk := chunks.Index(i); !chunk.IsNil() {
			unsafe.Slice((*uint64)(chunk.UnsafePointer()), chunkWords)[chunkWords-1] = 1<<3 | 1
			planted = true
		}
	}
	if !planted {
		t.Fatalf("the run took no chunk of the line slab")
	}
	for _, d := range [][]string{walk(freshSim, usedSim), walk(usedSim, freshSim)} {
		if len(d) != 1 || !strings.Contains(d[0], "chunks[") {
			t.Fatalf("one non-zero way in a rewound slab: got diffs %v, want exactly one in the chunks", d)
		}
	}
}

type resetVisit struct {
	a, b uintptr
	t    reflect.Type
}

// resetWalker compares two object graphs structurally. Slices compare by
// length and elements, not capacity; a nil pointer equals a pointer to a zero
// value, and likewise a nil slice equals a slice of zero elements of any
// length (a core that never ran has no predictor table or OOO window, a reset
// one has them zeroed; a fresh chip's line slab has no chunks, a reset one
// chunks of zero lines): state built on first use is absent or zero, never
// stale.
// Funcs, chans and unsafe pointers compare by nil-ness only.
type resetWalker struct {
	seen  map[resetVisit]bool
	diffs []string
}

func (w *resetWalker) differ(path string, fresh, reset any) {
	w.diffs = append(w.diffs, fmt.Sprintf("%s: fresh %v, reset %v", path, fresh, reset))
}

func (w *resetWalker) walk(path string, a, b reflect.Value) {
	if _, ok := resetSkip[typeKey(a.Type())]; ok {
		return
	}
	switch a.Kind() {
	case reflect.Pointer:
		if a.IsNil() || b.IsNil() {
			if a.IsNil() != b.IsNil() && !(a.IsNil() && b.Elem().IsZero()) && !(b.IsNil() && a.Elem().IsZero()) {
				w.differ(path, nilness(a), nilness(b))
			}
			return
		}
		v := resetVisit{a.Pointer(), b.Pointer(), a.Type()}
		if w.seen[v] {
			return
		}
		w.seen[v] = true
		w.walk(path, a.Elem(), b.Elem())
	case reflect.Interface:
		if a.IsNil() || b.IsNil() {
			if a.IsNil() != b.IsNil() {
				w.differ(path, nilness(a), nilness(b))
			}
			return
		}
		if a.Elem().Type() != b.Elem().Type() {
			w.differ(path, a.Elem().Type(), b.Elem().Type())
			return
		}
		w.walk(path, a.Elem(), b.Elem())
	case reflect.Struct:
		key := typeKey(a.Type())
		for i := 0; i < a.NumField(); i++ {
			f := a.Type().Field(i)
			if _, ok := resetSkip[key+"."+f.Name]; ok || f.Name == "_" {
				continue
			}
			if key+"."+f.Name == "cache.lineSlab.chunks" {
				w.walkChunks(path+".chunks", a, b)
				continue
			}
			w.walk(path+"."+f.Name, a.Field(i), b.Field(i))
		}
	case reflect.Slice, reflect.Array:
		if a.Kind() == reflect.Slice && a.IsNil() != b.IsNil() {
			built := a
			if a.IsNil() {
				built = b
			}
			for i := 0; i < built.Len(); i++ {
				if e := built.Index(i); !e.IsZero() {
					w.differ(fmt.Sprintf("%s[%d]", path, i), "nil slice", e)
				}
			}
			return
		}
		if a.Len() != b.Len() {
			w.differ(path+".len", a.Len(), b.Len())
			return
		}
		for i := 0; i < a.Len(); i++ {
			w.walk(fmt.Sprintf("%s[%d]", path, i), a.Index(i), b.Index(i))
		}
	case reflect.Map:
		if a.Len() != b.Len() {
			w.differ(path+".len", a.Len(), b.Len())
			return
		}
		for _, k := range a.MapKeys() {
			bv := b.MapIndex(k)
			if !bv.IsValid() {
				w.differ(fmt.Sprintf("%s[%v]", path, k), "present", "missing")
				continue
			}
			w.walk(fmt.Sprintf("%s[%v]", path, k), a.MapIndex(k), bv)
		}
	case reflect.Func, reflect.Chan, reflect.UnsafePointer:
		if a.IsNil() != b.IsNil() {
			w.differ(path, nilness(a), nilness(b))
		}
	case reflect.Bool:
		if a.Bool() != b.Bool() {
			w.differ(path, a.Bool(), b.Bool())
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		if a.Int() != b.Int() {
			w.differ(path, a.Int(), b.Int())
		}
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		if a.Uint() != b.Uint() {
			w.differ(path, a.Uint(), b.Uint())
		}
	case reflect.Float32, reflect.Float64:
		if a.Float() != b.Float() {
			w.differ(path, a.Float(), b.Float())
		}
	case reflect.String:
		if a.String() != b.String() {
			w.differ(path, a.String(), b.String())
		}
	default:
		w.differ(path, "unhandled kind", a.Kind())
	}
}

// walkChunks compares the chunks of two line slabs word by word. A slab's
// chunk table points at each chunk's first word, and a chunk is 1<<shift
// words; a nil chunk reads as zero words.
func (w *resetWalker) walkChunks(path string, a, b reflect.Value) {
	words := func(slab reflect.Value, i int) []uint64 {
		chunks := slab.FieldByName("chunks")
		if i >= chunks.Len() || chunks.Index(i).IsNil() {
			return nil
		}
		return unsafe.Slice((*uint64)(chunks.Index(i).UnsafePointer()), 1<<slab.FieldByName("shift").Uint())
	}
	for i := range max(a.FieldByName("chunks").Len(), b.FieldByName("chunks").Len()) {
		ca, cb := words(a, i), words(b, i)
		for j := range max(len(ca), len(cb)) {
			var va, vb uint64
			if j < len(ca) {
				va = ca[j]
			}
			if j < len(cb) {
				vb = cb[j]
			}
			if va != vb {
				w.differ(fmt.Sprintf("%s[%d][%d]", path, i, j), va, vb)
			}
		}
	}
}

// typeKey names a type as "pkg.Type" ("" for unnamed types).
func typeKey(t reflect.Type) string {
	if t.Name() == "" {
		return ""
	}
	pkg := t.PkgPath()
	for i := len(pkg) - 1; i >= 0; i-- {
		if pkg[i] == '/' {
			pkg = pkg[i+1:]
			break
		}
	}
	return pkg + "." + t.Name()
}

func nilness(v reflect.Value) string {
	if v.IsNil() {
		return "nil"
	}
	return "non-nil"
}
