package event

import (
	"testing"
	"testing/quick"
	"unsafe"
)

func TestSlabAllocAndReset(t *testing.T) {
	s := NewSlab(4)
	var evs []*Event
	for i := 0; i < 10; i++ { // forces growth past the first chunk
		e := s.Alloc()
		e.Comp = i
		evs = append(evs, e)
	}
	if s.InUse() != 10 {
		t.Fatalf("in-use count: %d", s.InUse())
	}
	// Growth must not invalidate earlier pointers.
	for i, e := range evs {
		if e.Comp != i {
			t.Fatalf("event %d corrupted after slab growth: comp=%d", i, e.Comp)
		}
	}
	s.Reset()
	if s.InUse() != 0 {
		t.Fatalf("reset should clear in-use count")
	}
	e := s.Alloc()
	if e.Comp != 0 || e.MinCycle != 0 || e.Exec != nil {
		t.Fatalf("recycled event should be zeroed")
	}
	// Minimum chunk size.
	tiny := NewSlab(1)
	if tiny.chunkSize != 16 {
		t.Fatalf("chunk size should clamp to 16, got %d", tiny.chunkSize)
	}
}

func TestSlabRecyclesChildCapacity(t *testing.T) {
	s := NewSlab(16)
	parent := s.Alloc()
	child := s.Alloc()
	parent.AddChild(child)
	if parent.NumChildren() != 1 {
		t.Fatalf("child not registered")
	}
	s.Reset()
	p2 := s.Alloc()
	if p2 != parent {
		t.Fatalf("reset should recycle the same slots in order")
	}
	if p2.NumChildren() != 0 {
		t.Fatalf("recycled event must not keep stale children")
	}
	// Appending a child to the recycled event must not allocate: the children
	// slice keeps its capacity across Reset.
	c2 := s.Alloc()
	allocs := testing.AllocsPerRun(1, func() {
		p2.children = p2.children[:0]
		p2.AddChild(c2)
	})
	if allocs != 0 {
		t.Fatalf("AddChild on a recycled event should not allocate, got %v allocs", allocs)
	}
}

func TestEventPQOrdering(t *testing.T) {
	var q eventPQ
	cycles := []uint64{9, 3, 7, 1, 8, 2, 6, 0, 5, 4, 5}
	evs := make([]Event, len(cycles))
	for i, c := range cycles {
		evs[i].MinCycle = c
		evs[i].seq = uint32(i)
		q.push(&evs[i])
	}
	// A ready cycle above the lower bound is the key.
	var late Event
	late.MinCycle, late.cycle, late.seq = 1, 6, 20
	q.push(&late)
	// Pops interleaved with pushes keep the (cycle, seq) order.
	type key struct {
		cycle uint64
		seq   uint32
	}
	var got []key
	for i := 0; len(q) > 0; i++ {
		it := q[0]
		q.pop()
		got = append(got, key{it.cycle, it.seq})
		if i == 2 {
			var mid Event
			mid.MinCycle, mid.seq = 5, 7 // ties with seq 8 and 10 at cycle 5
			q.push(&mid)
		}
	}
	want := []key{{0, 7}, {1, 3}, {2, 5}, {3, 1}, {4, 9}, {5, 7}, {5, 8}, {5, 10}, {6, 6}, {6, 20}, {7, 2}, {8, 4}, {9, 0}}
	if len(got) != len(want) {
		t.Fatalf("popped %d items, want %d: %v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pops out of order: %v, want %v", got, want)
		}
	}
}

// TestEventSize pins the event at 80 bytes: Delay through seq pack into two
// words, and the ready and finish cycles share one field.
func TestEventSize(t *testing.T) {
	if got := unsafe.Sizeof(Event{}); got > 80 {
		t.Fatalf("Event is %d bytes, want at most 80", got)
	}
}

// TestRunReplacesTop runs heads that ready 0, 1 and 3 children: each head
// stays at the heap's root while it executes, its first ready child takes
// its place, and the execution order is still (dispatch cycle, sequence).
func TestRunReplacesTop(t *testing.T) {
	var eng Engine
	s := NewSlab(16)
	type key struct{ cycle, seq uint64 }
	var order []key
	exec := func(ev *Event, c uint64) uint64 {
		if eng.pq[0].ev != ev {
			t.Errorf("event %d executed away from the heap's root", uint64(ev.seq))
		}
		order = append(order, key{c, uint64(ev.seq)})
		return c + ev.Arg
	}
	mk := func(minCycle, lat uint64) *Event {
		ev := s.Alloc()
		ev.MinCycle, ev.Arg, ev.Exec = minCycle, lat, exec
		return ev
	}
	a := mk(10, 0) // readies no child
	b := mk(5, 4)  // readies d at 9
	c := mk(7, 1)  // readies e, f and g at 8
	d := mk(0, 0)
	e, f, g := mk(20, 0), mk(8, 0), mk(12, 0)
	b.AddChild(d)
	c.AddChild(e)
	c.AddChild(f)
	c.AddChild(g)
	for _, ev := range []*Event{a, b, c} {
		eng.Enqueue(ev)
	}
	if end := eng.Run(); end != 20 {
		t.Fatalf("Run returned %d, want 20", end)
	}
	want := []key{{5, 1}, {7, 2}, {8, 5}, {9, 3}, {10, 0}, {12, 6}, {20, 4}}
	if len(order) != len(want) {
		t.Fatalf("executed %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("executed %v, want %v", order, want)
		}
	}
	if len(eng.pq) != 0 {
		t.Fatalf("heap holds %d events after Run", len(eng.pq))
	}
}

func TestSingleEventExecution(t *testing.T) {
	var eng Engine
	s := NewSlab(16)
	ev := s.Alloc()
	ev.Comp = 0
	ev.MinCycle = 100
	var got uint64
	ev.Exec = func(_ *Event, c uint64) uint64 { got = c; return c + 25 }
	eng.Enqueue(ev)
	end := eng.Run()
	if !ev.done {
		t.Fatalf("event should have executed")
	}
	if got != 100 {
		t.Fatalf("event should dispatch at its lower bound, got %d", got)
	}
	if ev.FinishCycle() != 125 || end != 125 {
		t.Fatalf("finish cycle wrong: %d / %d", ev.FinishCycle(), end)
	}
}

func TestParentChildDelayPropagation(t *testing.T) {
	var eng Engine
	s := NewSlab(16)
	parent := s.Alloc()
	parent.Comp = 0
	parent.MinCycle = 10
	parent.Exec = func(_ *Event, c uint64) uint64 { return c + 40 } // finishes at 50

	child := s.Alloc()
	child.Comp = 0
	child.MinCycle = 20 // lower bound is far below the real dispatch
	child.Delay = 5
	var childDispatch uint64
	child.Exec = func(_ *Event, c uint64) uint64 { childDispatch = c; return c }
	parent.AddChild(child)
	if parent.NumChildren() != 1 {
		t.Fatalf("child not registered")
	}

	eng.Enqueue(parent)
	eng.Run()
	if !child.done {
		t.Fatalf("child should run after parent")
	}
	if childDispatch != 55 {
		t.Fatalf("child should dispatch at parentFinish+delay = 55, got %d", childDispatch)
	}
}

func TestMultipleParentsWaitForAll(t *testing.T) {
	var eng Engine
	s := NewSlab(16)
	p1 := s.Alloc()
	p1.Comp = 0
	p1.MinCycle = 0
	p1.Exec = func(_ *Event, c uint64) uint64 { return c + 10 }
	p2 := s.Alloc()
	p2.Comp = 1 // different component
	p2.MinCycle = 0
	p2.Exec = func(_ *Event, c uint64) uint64 { return c + 90 }

	child := s.Alloc()
	child.Comp = 0
	var dispatch uint64
	child.Exec = func(_ *Event, c uint64) uint64 { dispatch = c; return c }
	p1.AddChild(child)
	p2.AddChild(child)

	eng.Enqueue(p1)
	eng.Enqueue(p2)
	eng.Run()
	if !child.done {
		t.Fatalf("child should execute after both parents")
	}
	if dispatch != 90 {
		t.Fatalf("child should wait for the slower parent (90), got %d", dispatch)
	}
}

func TestCrossDomainChain(t *testing.T) {
	// A chain crossing components: core (100) -> L3 bank (200) -> memory
	// controller (300) -> core, like Figure 4's request-response traffic.
	var eng Engine
	s := NewSlab(16)

	mk := func(comp int, min uint64, lat uint64) *Event {
		e := s.Alloc()
		e.Comp = comp
		e.MinCycle = min
		e.Arg = lat
		e.Exec = func(ev *Event, c uint64) uint64 { return c + ev.Arg }
		return e
	}
	core := mk(100, 30, 0)
	l3 := mk(200, 80, 20) // contention model adds 20 cycles
	mem := mk(300, 110, 66)
	resp := mk(100, 250, 0)
	core.AddChild(l3)
	l3.AddChild(mem)
	mem.AddChild(resp)

	eng.Enqueue(core)
	end := eng.Run()
	for i, ev := range []*Event{core, l3, mem, resp} {
		if !ev.done {
			t.Fatalf("event %d did not finish", i)
		}
	}
	// Finish cycles must be monotone along the chain.
	if !(core.FinishCycle() <= l3.FinishCycle() && l3.FinishCycle() <= mem.FinishCycle() && mem.FinishCycle() <= resp.FinishCycle()) {
		t.Fatalf("chain finish cycles not monotone: %d %d %d %d",
			core.FinishCycle(), l3.FinishCycle(), mem.FinishCycle(), resp.FinishCycle())
	}
	// The response cannot finish before its lower bound.
	if resp.FinishCycle() < 250 {
		t.Fatalf("lower bound violated: %d", resp.FinishCycle())
	}
	if end < resp.FinishCycle() {
		t.Fatalf("engine end cycle should cover the last event")
	}
}

func TestLowerBoundRespected(t *testing.T) {
	// A child whose MinCycle exceeds parentFinish+Delay dispatches at its
	// MinCycle (bound phase already guarantees it cannot be earlier).
	var eng Engine
	s := NewSlab(4)
	p := s.Alloc()
	p.Comp = 0
	p.Exec = func(_ *Event, c uint64) uint64 { return c + 1 }
	ch := s.Alloc()
	ch.Comp = 0
	ch.MinCycle = 500
	var dispatch uint64
	ch.Exec = func(_ *Event, c uint64) uint64 { dispatch = c; return c }
	p.AddChild(ch)
	eng.Enqueue(p)
	eng.Run()
	if dispatch != 500 {
		t.Fatalf("child should dispatch at its lower bound 500, got %d", dispatch)
	}
}

// TestDeterministicTieBreak checks the deterministic (cycle, sequence) order:
// same-cycle events execute in slab allocation order, regardless of the order
// they were enqueued in and of their components. Component is deliberately
// not part of the tie-break (see the package comment).
func TestDeterministicTieBreak(t *testing.T) {
	var eng Engine
	s := NewSlab(16)
	var order []uint64
	record := func(e *Event, c uint64) uint64 {
		order = append(order, uint64(e.seq))
		return c
	}
	// Allocation order: seq 0..3. Enqueue deliberately scrambled, with equal
	// MinCycles and components spread out.
	evs := make([]*Event, 4)
	comps := []int{3, 0, 1, 0} // seq 0→comp 3, 1→comp 0, 2→comp 1, 3→comp 0
	for i := range evs {
		ev := s.Alloc()
		ev.Comp = comps[i]
		ev.MinCycle = 50
		ev.Exec = record
		evs[i] = ev
	}
	for _, i := range []int{2, 0, 3, 1} {
		eng.Enqueue(evs[i])
	}
	eng.Run()
	want := []uint64{0, 1, 2, 3} // pure allocation order at the tied cycle
	if len(order) != len(want) {
		t.Fatalf("executed %d events, want %d", len(order), len(want))
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("tie-break order wrong: got %v, want %v", order, want)
		}
	}
}

func TestEngineOrderWithinDomain(t *testing.T) {
	// Events at one component must execute in dispatch-cycle order (full
	// order is what gives the weave phase its accuracy).
	var eng Engine
	s := NewSlab(64)
	var order []uint64
	for i := 10; i > 0; i-- {
		ev := s.Alloc()
		ev.Comp = 0
		ev.MinCycle = uint64(i * 10)
		ev.Arg = uint64(i * 10)
		ev.Exec = func(e *Event, c uint64) uint64 {
			order = append(order, e.Arg)
			return c
		}
		eng.Enqueue(ev)
	}
	eng.Run()
	if len(order) != 10 {
		t.Fatalf("expected 10 executions, got %d", len(order))
	}
	for i := 1; i < len(order); i++ {
		if order[i] < order[i-1] {
			t.Fatalf("events executed out of order: %v", order)
		}
	}
}

func TestManyEventsAcrossDomainsParallel(t *testing.T) {
	// A larger stress test: per-core chains (built core by core from one
	// slab, as the simulator builds them) touching 8 shared components with
	// core-dependent latencies. Every event must execute exactly once, and
	// each component must see its events in (final dispatch cycle, sequence)
	// order — the ordering contract that makes results a pure function of the
	// bound phase.
	var eng Engine
	s := NewSlab(1024)
	const cores = 16
	const perCore = 50
	const comps = 8
	type rec struct{ cycle, seq uint64 }
	orders := make([][]rec, comps)
	record := func(ev *Event, c uint64) uint64 {
		orders[ev.Comp] = append(orders[ev.Comp], rec{c, uint64(ev.seq)})
		return c + ev.Arg
	}
	for c := 0; c < cores; c++ {
		var prev *Event
		for i := 0; i < perCore; i++ {
			ev := s.Alloc()
			ev.Comp = (c + i) % comps
			ev.MinCycle = uint64(i * 10)
			ev.Arg = uint64(c%3) + 1
			ev.Exec = record
			if prev == nil {
				eng.Enqueue(ev)
			} else {
				prev.AddChild(ev)
			}
			prev = ev
		}
	}
	eng.Run()
	total := 0
	for comp, seen := range orders {
		total += len(seen)
		for i := 1; i < len(seen); i++ {
			a, b := seen[i-1], seen[i]
			if a.cycle > b.cycle || (a.cycle == b.cycle && a.seq > b.seq) {
				t.Fatalf("comp %d executed out of (cycle, seq) order: (%d,%d) before (%d,%d)",
					comp, a.cycle, a.seq, b.cycle, b.seq)
			}
		}
	}
	if total != cores*perCore {
		t.Fatalf("expected %d executions, got %d", cores*perCore, total)
	}
}

func TestParallelPerComponentOrder(t *testing.T) {
	// Per-core chains at 5-cycle spacing, built core by core from one slab: each
	// component must still see its events in (cycle, seq) order on the one
	// executor that replaced the parallel one.
	var eng Engine
	s := NewSlab(256)
	const comps = 8
	type rec struct{ cycle, seq uint64 }
	orders := make([][]rec, comps)
	record := func(ev *Event, c uint64) uint64 {
		orders[ev.Comp] = append(orders[ev.Comp], rec{c, uint64(ev.seq)})
		return c + ev.Arg
	}
	for core := 0; core < 8; core++ {
		var prevEv *Event
		for i := 0; i < 20; i++ {
			ev := s.Alloc()
			ev.Comp = (core + i) % comps
			ev.MinCycle = uint64(i * 5)
			ev.Arg = uint64(core%3) + 1
			ev.Exec = record
			if prevEv == nil {
				eng.Enqueue(ev)
			} else {
				prevEv.AddChild(ev)
			}
			prevEv = ev
		}
	}
	eng.Run()
	total := 0
	for comp, seen := range orders {
		total += len(seen)
		for i := 1; i < len(seen); i++ {
			a, b := seen[i-1], seen[i]
			if a.cycle > b.cycle || (a.cycle == b.cycle && a.seq > b.seq) {
				t.Fatalf("comp %d executed out of (cycle, seq) order: (%d,%d) before (%d,%d)",
					comp, a.cycle, a.seq, b.cycle, b.seq)
			}
		}
	}
	if total != 8*20 {
		t.Fatalf("expected %d executions, got %d", 8*20, total)
	}
}

func TestEnginePersistentAcrossIntervals(t *testing.T) {
	// One engine must serve many intervals back to back, exactly like the
	// bound-weave loop uses it: build graph, Run, reset slab, repeat.
	var eng Engine
	s := NewSlab(64)
	executed := 0
	for interval := 0; interval < 50; interval++ {
		s.Reset()
		var prev *Event
		for i := 0; i < 12; i++ {
			ev := s.Alloc()
			ev.Comp = i % 5
			ev.MinCycle = uint64(interval*1000 + i*10)
			ev.Exec = func(_ *Event, c uint64) uint64 {
				executed++
				return c + 2
			}
			if prev == nil {
				eng.Enqueue(ev)
			} else {
				prev.AddChild(ev)
			}
			prev = ev
		}
		end := eng.Run()
		if end < uint64(interval*1000) {
			t.Fatalf("interval %d: end cycle %d below interval base", interval, end)
		}
	}
	if executed != 50*12 {
		t.Fatalf("every interval's events must run: got %d", executed)
	}
}

func TestRunWithNoEvents(t *testing.T) {
	var eng Engine
	if end := eng.Run(); end != 0 {
		t.Fatalf("empty run should return 0, got %d", end)
	}
}

// TestEngineRunSteadyStateAllocs is the allocation-regression guard for the
// weave hot path: once the slab and the engine's internal buffers have warmed
// up, building and running an interval's event graph must not allocate.
func TestEngineRunSteadyStateAllocs(t *testing.T) {
	var eng Engine
	s := NewSlab(256)
	buildAndRun := func() {
		s.Reset()
		for c := 0; c < 4; c++ {
			var prev *Event
			for i := 0; i < 16; i++ {
				ev := s.Alloc()
				ev.Comp = (c + i) % 4
				ev.MinCycle = uint64(i * 10)
				ev.Arg = 3
				ev.Exec = sharedExec
				if prev == nil {
					eng.Enqueue(ev)
				} else {
					prev.AddChild(ev)
				}
				prev = ev
			}
		}
		eng.Run()
	}
	// Warm up the slab, queues and scratch buffers.
	for i := 0; i < 3; i++ {
		buildAndRun()
	}
	allocs := testing.AllocsPerRun(20, buildAndRun)
	// The interval loop must be O(1) allocations; in practice it is zero once
	// warm, but allow a little headroom for runtime-internal noise.
	if allocs > 2 {
		t.Fatalf("steady-state interval should be allocation-free, got %v allocs/run", allocs)
	}
}

func sharedExec(ev *Event, c uint64) uint64 { return c + ev.Arg }

func TestNilExecFinishesInstantly(t *testing.T) {
	var eng Engine
	s := NewSlab(4)
	ev := s.Alloc()
	ev.Comp = 0
	ev.MinCycle = 42
	eng.Enqueue(ev)
	end := eng.Run()
	if !ev.done || ev.FinishCycle() != 42 || end != 42 {
		t.Fatalf("nil-exec event should finish at its dispatch cycle: %d", ev.FinishCycle())
	}
}

// Property: for random chains with random latencies and lower bounds, every
// event executes exactly once, finish cycles are monotone along each chain,
// and no event finishes before its lower bound.
func TestEventChainProperties(t *testing.T) {
	f := func(latsRaw []uint8, compsRaw uint8) bool {
		if len(latsRaw) == 0 {
			return true
		}
		if len(latsRaw) > 64 {
			latsRaw = latsRaw[:64]
		}
		comps := int(compsRaw%12) + 1
		var eng Engine
		s := NewSlab(128)
		var chain []*Event
		var prev *Event
		for i, l := range latsRaw {
			ev := s.Alloc()
			ev.Comp = i % comps
			ev.MinCycle = uint64(i)
			ev.Arg = uint64(l % 50)
			ev.Exec = sharedExec
			if prev == nil {
				eng.Enqueue(ev)
			} else {
				prev.AddChild(ev)
			}
			chain = append(chain, ev)
			prev = ev
		}
		eng.Run()
		var last uint64
		for _, ev := range chain {
			if !ev.done {
				return false
			}
			if ev.FinishCycle() < ev.MinCycle {
				return false
			}
			if ev.FinishCycle() < last {
				return false
			}
			last = ev.FinishCycle()
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestCreationOrderViolationPanics: a child allocated before its parent would
// sort ahead of same-cycle events its parent had to precede, breaking the
// (dispatch cycle, sequence) order, so the engine refuses such a graph.
func TestCreationOrderViolationPanics(t *testing.T) {
	var eng Engine
	s := NewSlab(16)
	child := s.Alloc() // seq 0
	parent := s.Alloc()
	child.MinCycle, parent.MinCycle = 10, 10
	parent.AddChild(child)
	eng.Enqueue(parent)
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("Run should panic on a parent allocated after its child")
		}
	}()
	eng.Run()
}
