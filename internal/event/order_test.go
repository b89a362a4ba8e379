package event

import (
	"hash/fnv"
	"testing"
	"testing/quick"
)

// xorshift is the tests' deterministic graph-shape generator.
type xorshift uint64

func (x *xorshift) next() uint64 {
	v := uint64(*x)
	v ^= v << 13
	v ^= v >> 7
	v ^= v << 17
	*x = xorshift(v)
	return v
}

// orderDAG is a random event graph built to force ties: a handful of
// components, lower bounds drawn from a narrow range, zero delays, multi-parent
// joins, nil and zero-latency executors. parents[i] lists event i's parents
// (all created before it).
type orderDAG struct {
	evs     []*Event
	parents [][]int
	// runs counts Exec calls per event; trace is the (dispatch, seq) of every
	// Exec call in execution order; dispatch is each event's dispatch cycle as
	// Exec saw it.
	runs     []int
	trace    [][2]uint64
	dispatch []uint64
}

// exec records an Exec call.
func (g *orderDAG) exec(ev *Event, d uint64) uint64 {
	g.runs[ev.Seq()]++
	g.trace = append(g.trace, [2]uint64{d, ev.Seq()})
	g.dispatch[ev.Seq()] = d
	return d + ev.Arg // Arg 0 is a zero-latency executor
}

func buildOrderDAG(eng *Engine, seed uint64, n int) *orderDAG {
	rng := xorshift(seed | 1)
	s := NewSlab(32)
	g := &orderDAG{parents: make([][]int, n), runs: make([]int, n), dispatch: make([]uint64, n)}
	for i := 0; i < n; i++ {
		ev := s.Alloc()
		ev.Comp = int(rng.next() % 3)
		ev.MinCycle = rng.next() % 6
		if rng.next()%2 == 0 {
			ev.Delay = uint32(rng.next() % 3)
		}
		if rng.next()%4 != 0 {
			ev.Exec = g.exec
			if rng.next()%3 != 0 {
				ev.Arg = rng.next() % 4
			}
		}
		for k := rng.next() % 4; k > 0 && i > 0; k-- {
			p := int(rng.next() % uint64(i))
			dup := false
			for _, q := range g.parents[i] {
				dup = dup || q == p
			}
			if !dup {
				g.evs[p].AddChild(ev)
				g.parents[i] = append(g.parents[i], p)
			}
		}
		g.evs = append(g.evs, ev)
		if len(g.parents[i]) == 0 {
			eng.Enqueue(ev)
		}
	}
	return g
}

// TestEngineOrderProperty checks, on random tie-heavy DAGs, the three facts
// that together define the weave order uniquely: every event runs exactly
// once; the executed sequence is strictly increasing in (dispatch, seq); and
// each event dispatches at max(MinCycle, max over parents of finish + Delay).
func TestEngineOrderProperty(t *testing.T) {
	var eng Engine // one engine across cases, as the simulator reuses it
	f := func(seed uint64, size uint8) bool {
		g := buildOrderDAG(&eng, seed, int(size)%150+1)
		eng.Run()
		for i, ev := range g.evs {
			if !ev.done || (ev.Exec != nil && g.runs[i] != 1) {
				t.Logf("seed %d: event %d ran %d times (finished %v)", seed, i, g.runs[i], ev.done)
				return false
			}
			want := ev.MinCycle
			for _, p := range g.parents[i] {
				want = max(want, g.evs[p].FinishCycle()+uint64(ev.Delay))
			}
			got := ev.FinishCycle() // a nil Exec finishes at its dispatch
			if ev.Exec != nil {
				got = g.dispatch[i]
			}
			if got != want {
				t.Logf("seed %d: event %d dispatched at %d, want %d", seed, i, got, want)
				return false
			}
		}
		for i := 1; i < len(g.trace); i++ {
			a, b := g.trace[i-1], g.trace[i]
			if a[0] > b[0] || (a[0] == b[0] && a[1] >= b[1]) {
				t.Logf("seed %d: (%d,%d) executed before (%d,%d)", seed, a[0], a[1], b[0], b[1])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// portModel is a stateful per-component contention model: each component's
// port stays busy for a while after every access, so executing two events at
// a component in the other order changes both of their finish times and,
// through them, everything downstream.
type portModel struct {
	busyUntil [8]uint64
	dispatch  []uint64
}

func (m *portModel) exec(ev *Event, d uint64) uint64 {
	m.dispatch[ev.Seq()] = d
	start := max(d, m.busyUntil[ev.Comp])
	m.busyUntil[ev.Comp] = start + ev.Arg%3 + 1
	return start + ev.Arg
}

// TestEngineGoldenOrder is the engine-level counterpart of boundweave's
// TestGoldenWeaveOrder: a fixed 2,000-event graph over port-busy components,
// with same-cycle groups, zero delays, multi-parent joins and nil and
// zero-latency executors, hashed over every event's (seq, dispatch, finish).
// The literal was recorded with the executor that pre-created every event in
// its heap and raised keys, so it pins the push-when-ready executor to the
// same (final dispatch cycle, seq) order.
func TestEngineGoldenOrder(t *testing.T) {
	const n = 2000
	var eng Engine
	s := NewSlab(256)
	m := &portModel{dispatch: make([]uint64, n)}
	rng := xorshift(0x9e3779b97f4a7c15)
	evs := make([]*Event, n)
	for i := range evs {
		ev := s.Alloc()
		ev.Comp = int(rng.next() % 8)
		ev.MinCycle = uint64(i/20)*6 + rng.next()%3
		ev.Delay = uint32(rng.next() % 3)
		switch rng.next() % 6 {
		case 0: // nil Exec: finishes at its dispatch
		case 1:
			ev.Exec = m.exec // zero latency, still occupies the port
		default:
			ev.Exec, ev.Arg = m.exec, 1+rng.next()%12
		}
		parents := 0
		for k := rng.next() % 4; k > 0 && i > 0; k-- {
			p := evs[i-1-int(rng.next()%uint64(min(i, 40)))]
			dup := false
			for _, c := range p.children {
				dup = dup || c == ev
			}
			if !dup {
				p.AddChild(ev)
				parents++
			}
		}
		evs[i] = ev
		if parents == 0 {
			eng.Enqueue(ev)
		}
	}
	eng.Run()
	h := fnv.New64a()
	var buf [24]byte
	put := func(off int, v uint64) {
		for b := 0; b < 8; b++ {
			buf[off+b] = byte(v >> (8 * b))
		}
	}
	for i, ev := range evs {
		if !ev.done {
			t.Fatalf("event %d never ran", i)
		}
		d := ev.FinishCycle()
		if ev.Exec != nil {
			d = m.dispatch[i]
		}
		put(0, ev.Seq())
		put(8, d)
		put(16, ev.FinishCycle())
		h.Write(buf[:])
	}
	const want = 0x506999dd1d581dd1
	if got := h.Sum64(); got != want {
		t.Fatalf("engine order moved: hash %#x, want %#x", got, want)
	}
}
