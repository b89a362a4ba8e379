package boundweave

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

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
	"engine.Pool":       "worker pool: persistent goroutines and lifetime counters, no simulated state",
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
		name string
		cfg  func(*config.System)
	}{
		{"ipc1-no-contention", func(c *config.System) {}},
		{"ipc1-simple-ddr3", func(c *config.System) { c.Contention = true }},
		{"ooo-md1-cycle-driven", func(c *config.System) {
			c.Contention = true
			c.CoreModel = config.CoreOOO
			c.MemModel = config.MemMD1
			c.WeaveMem = config.WeaveMemCycleDriven
		}},
		{"ipc1-mesh-noc", func(c *config.System) {
			c.Contention = true
			c.Network = config.NetMesh // 4 single-core tiles -> a 2x2 mesh
			c.NetRouterStage = 1
			c.NOCContention = true
			c.NOCLinkBytes = 4 // 18-flit packets: ports back up under load
		}},
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
			opts := Options{HostThreads: 2, Seed: 7, MaxCycles: 1 << 40, Profiler: prof, Reusable: true}

			used := build()
			usedSched := virt.NewScheduler(len(used.Cores))
			p := trace.DefaultParams()
			p.BlocksPerThread = 200
			p.WorkingSet = 1 << 18
			p.LockEvery = 16
			p.BlockedSyscallEvery = 48
			usedSched.AddWorkload(trace.New("reset", p, len(used.Cores)+2))
			usedSim := NewSimulator(used, usedSched, Options{HostThreads: opts.HostThreads, Seed: 3, Reusable: true})
			defer usedSim.Close()
			if usedSim.Run() == 0 || usedSim.Reason != runctl.ReasonNone {
				t.Fatalf("run: reason %v", usedSim.Reason)
			}
			usedSched.Reset()
			if err := usedSim.Reset(opts); err != nil {
				t.Fatal(err)
			}

			fresh := build()
			freshSim := NewSimulator(fresh, virt.NewScheduler(len(fresh.Cores)), opts)
			defer freshSim.Close()

			w := resetWalker{seen: map[resetVisit]bool{}}
			w.walk("Simulator", reflect.ValueOf(freshSim), reflect.ValueOf(usedSim))
			if n := len(w.diffs); n > 0 {
				t.Fatalf("reset simulator differs from a fresh one in %d place(s), first %d:\n  %s",
					n, min(n, 20), strings.Join(w.diffs[:min(n, 20)], "\n  "))
			}
		})
	}
}

type resetVisit struct {
	a, b uintptr
	t    reflect.Type
}

// resetWalker compares two object graphs structurally. Slices compare by
// length and elements, not capacity; a nil pointer equals a pointer to a zero
// value (an untouched cache set is nil, a reset one points at zeroed ways);
// funcs, chans and unsafe pointers compare by nil-ness only.
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
			w.walk(path+"."+f.Name, a.Field(i), b.Field(i))
		}
	case reflect.Slice, reflect.Array:
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
