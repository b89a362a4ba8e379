package boundweave

import (
	"zsim/internal/cache"
	"zsim/internal/event"
	"zsim/internal/memctrl"
	"zsim/internal/noc"
)

// accessRecord is one bound-phase memory access that reached a shared
// component: its zero-load issue and completion cycles, whether it was a
// store, and where its model hops — the hops that become weave events, in
// program order — sit in its recorder's hop log (n hops from off).
// Private-level hops are dropped when the access is recorded; only the
// completion cycle keeps their zero-load time. A record holds no pointers.
type accessRecord struct {
	issueCycle uint64
	doneCycle  uint64
	off, n     int32
	write      bool
}

// Recorder is the per-core bound-phase trace: it receives every recorded
// access from its core (via the core.AccessRecorder interface) and keeps the
// ones that touch shared components (L3 banks, memory controllers), which are
// the accesses the weave phase retimes. Each core has its own recorder and is
// driven by one host thread, so no locking is needed, and the filtering runs
// on the parallel bound workers rather than in the serial weave.
//
// The kept hops of an interval's accesses go to one hop log, back to back,
// and the caller keeps its own hop buffer. Reset (called after each weave
// phase) truncates the records and the log, so after the first few
// intervals the record path performs no heap allocation.
type Recorder struct {
	shared []bool // dense component-ID -> weave-retimed table
	// net keeps network hops, which become router events when the system has
	// a NoC contention fabric.
	net  bool
	recs []accessRecord
	log  []cache.Hop
}

// NewRecorder creates a recorder for core coreID. shared is the set of
// component IDs whose events are weave-simulated.
func NewRecorder(coreID int, shared map[int]bool) *Recorder {
	return &Recorder{shared: denseShared(shared)}
}

// denseShared densifies a shared-component set into a component-ID-indexed
// table. It is the single densification rule for recorders; the simulator
// builds one table and shares it (read-only) across every core's recorder, so
// a 1,024-core chip keeps one copy.
func denseShared(shared map[int]bool) []bool {
	maxComp := -1
	for comp := range shared {
		if comp > maxComp {
			maxComp = comp
		}
	}
	arr := make([]bool, maxComp+1)
	for comp, v := range shared {
		if comp >= 0 {
			arr[comp] = v
		}
	}
	return arr
}

// RecordAccess implements core.AccessRecorder. It appends the model hops of
// a trace that touches a shared component to the hop log, compacting them in
// place first, and always hands the caller's buffer back truncated.
func (r *Recorder) RecordAccess(coreID int, issueCycle uint64, write bool, hops []cache.Hop) []cache.Hop {
	done := issueCycle
	if n := len(hops); n > 0 {
		done = hops[n-1].Cycle + uint64(hops[n-1].Latency)
	}
	kept, touchesShared := 0, false
	for i := range hops {
		h := &hops[i]
		switch c := h.Comp; {
		case c >= 0 && c < len(r.shared) && r.shared[c]:
			touchesShared = true
		case r.net && (h.Kind == cache.HopNet || h.Kind == cache.HopNetMem):
		default:
			continue
		}
		hops[kept] = *h
		kept++
	}
	if touchesShared {
		r.recs = append(r.recs, accessRecord{issueCycle: issueCycle, doneCycle: done,
			off: int32(len(r.log)), n: int32(kept), write: write})
		r.log = append(r.log, hops[:kept]...)
	}
	return hops[:0]
}

// hops returns rec's model hops from the log.
func (r *Recorder) hops(rec *accessRecord) []cache.Hop { return r.log[rec.off : rec.off+rec.n] }

// Reset clears the interval's records and hop log (called after the weave
// phase and when a run starts), keeping their capacity.
func (r *Recorder) Reset() {
	r.recs = r.recs[:0]
	r.log = r.log[:0]
}

// BankModel is the weave-phase contention model for a pipelined L3 bank: a
// single address port accepts one access per cycle, and a limited number of
// MSHRs bounds outstanding misses (each miss holds an MSHR for roughly the
// memory round trip). Only the single-threaded weave engine drives it, so it
// needs no locking.
type BankModel struct {
	// Latency is the bank's zero-load access latency.
	Latency uint32
	// MSHRs bounds outstanding misses (0 = unlimited).
	MSHRs int
	// MissHoldCycles approximates how long a miss occupies an MSHR.
	MissHoldCycles uint64

	portFree uint64
	mshrFree []uint64 // completion cycles of in-flight misses

	// Stats.
	Accesses      uint64
	PortConflicts uint64
	MSHRStalls    uint64
}

// NewBankModel creates a bank contention model.
func NewBankModel(latency uint32, mshrs int, missHold uint64) *BankModel {
	if missHold == 0 {
		missHold = 120
	}
	return &BankModel{Latency: latency, MSHRs: mshrs, MissHoldCycles: missHold}
}

// Schedule returns the finish cycle of an access dispatched to the bank at
// the given cycle. isMiss marks accesses that continue to memory and hold an
// MSHR.
func (b *BankModel) Schedule(dispatch uint64, isMiss bool) uint64 {
	b.Accesses++
	start := dispatch
	if b.portFree > start {
		b.PortConflicts++
		start = b.portFree
	}
	// MSHR occupancy for misses.
	if isMiss && b.MSHRs > 0 {
		// Retire completed MSHRs.
		live := b.mshrFree[:0]
		for _, f := range b.mshrFree {
			if f > start {
				live = append(live, f)
			}
		}
		b.mshrFree = live
		if len(b.mshrFree) >= b.MSHRs {
			// All MSHRs busy: wait for the earliest to free.
			earliest := b.mshrFree[0]
			for _, f := range b.mshrFree {
				if f < earliest {
					earliest = f
				}
			}
			if earliest > start {
				b.MSHRStalls++
				start = earliest
			}
		}
		b.mshrFree = append(b.mshrFree, start+b.MissHoldCycles)
	}
	b.portFree = start + 1 // pipelined: one new access per cycle
	return start + uint64(b.Latency)
}

// Reset restores the model to its just-built state, counters included.
func (b *BankModel) Reset() {
	*b = BankModel{Latency: b.Latency, MSHRs: b.MSHRs, MissHoldCycles: b.MissHoldCycles, mshrFree: b.mshrFree[:0]}
}

// weaveModels bundles the per-component contention models used by the weave
// phase of one Simulator, as dense component-ID-indexed tables: banks and
// mems span the low IDs that hold them, routers every ID. routers, fabric
// and routerComp (node-indexed) are non-nil only when NoC contention is
// enabled. exec is the one executor every weave event carries: run, bound to
// these tables once per simulator.
type weaveModels struct {
	banks      []*BankModel
	mems       []memctrl.ContentionModel
	routers    []*noc.Router
	fabric     *noc.Fabric
	routerComp []int
	exec       event.Executor
}

// reset restores every bank and memory model to its just-built state. The
// routers belong to the System's fabric and rewind with the System.
func (m *weaveModels) reset() {
	for _, b := range m.banks {
		if b != nil {
			b.Reset()
		}
	}
	for _, mem := range m.mems {
		if mem != nil {
			mem.Reset()
		}
	}
}

func (m *weaveModels) bank(comp int) *BankModel {
	if comp >= 0 && comp < len(m.banks) {
		return m.banks[comp]
	}
	return nil
}

// run executes one weave event on the model of its component. A bank event's
// Flag marks a miss; a memory event's Arg is the line and its Flag marks a
// writeback; a router event's Arg is the output port.
func (m *weaveModels) run(ev *event.Event, dispatch uint64) uint64 {
	switch c := ev.Comp; {
	case c < len(m.banks) && m.banks[c] != nil:
		return m.banks[c].Schedule(dispatch, ev.Flag)
	case c < len(m.mems) && m.mems[c] != nil:
		return dispatch + m.mems[c].RequestLatency(ev.Arg, dispatch, ev.Flag)
	default:
		return m.routers[c].Schedule(int(ev.Arg), dispatch)
	}
}

// buildChain allocates a recorded access's events from slab, one per
// contended hop in program order, each a child of the one before, and
// returns the first and the last. Each event's lower bound is its hop's
// zero-load arrival, so an uncontended chain finishes exactly at the
// bound-phase cycle. A recorded access touches a shared component and every
// shared component has a model, so the chain is never empty.
func (m *weaveModels) buildChain(slab *event.Slab, hops []cache.Hop) (first, last *event.Event) {
	add := func(comp int, minCycle, arg uint64, flag bool) {
		ev := slab.Alloc()
		ev.Comp, ev.MinCycle, ev.Exec, ev.Arg, ev.Flag = comp, minCycle, m.exec, arg, flag
		if last == nil {
			first = ev
		} else {
			last.AddChild(ev)
		}
		last = ev
	}
	for i := range hops {
		h := &hops[i]
		switch h.Kind {
		case cache.HopNet:
			// A routed NoC traversal: one event per router along the
			// topology's deterministic route, each occupying its output port.
			// The first router dispatches after the zero-load injection
			// latency.
			cur, dst := int(h.Src), int(h.Dst)
			minCycle := h.Cycle + m.fabric.Injection()
			perHop := m.fabric.PerHop()
			for cur != dst {
				next, port := m.fabric.NextHop(cur, dst)
				add(m.routerComp[cur], minCycle, uint64(port), false)
				minCycle += perHop
				cur = next
			}
		case cache.HopNetMem:
			// The LLC-to-controller link: a single traversal of the owning
			// bank's memory-egress port (the one hop the bound phase charges).
			add(m.routerComp[h.Src], h.Cycle, uint64(m.fabric.MemPort()), false)
		default:
			if m.bank(h.Comp) != nil {
				add(h.Comp, h.Cycle, h.Line, h.Kind == cache.HopMiss)
			} else {
				add(h.Comp, h.Cycle, h.Line, h.Kind == cache.HopWB)
			}
		}
	}
	if first == nil {
		panic("boundweave: a recorded access has no contended hop")
	}
	return first, last
}

// coreChain is one core's chain-building state within an interval. A core's
// accesses are built in program order, and its later shared-level accesses
// queue behind the load it stalled on: the first event of an access is a
// child of the last event of the core's latest load, and dispatches no
// earlier than that load's zero-load completion. A load delayed by
// contention therefore delays the core's subsequent misses, as the stalled
// bound-phase core would have experienced it. Stores gate nothing (the core
// does not stall on them).
type coreChain struct {
	load     *event.Event // last event of the core's latest load
	loadDone uint64       // that load's zero-load completion
	// fb is the last event of the access with the latest zero-load
	// completion, fbDone (a later access wins a tie).
	fb     *event.Event
	fbDone uint64
}

// add builds the events of rec, whose model hops are hops, and links them
// into the core's chain. The first event's lower bound becomes max(its hop's
// bound, the issue cycle, the latest load's completion), and its parent the
// latest load's last event; with no earlier load it is enqueued on eng. add
// returns the first event.
func (c *coreChain) add(slab *event.Slab, eng *event.Engine, m *weaveModels, rec *accessRecord, hops []cache.Hop) *event.Event {
	first, last := m.buildChain(slab, hops)
	first.MinCycle = max(first.MinCycle, rec.issueCycle, c.loadDone)
	if c.load != nil {
		c.load.AddChild(first)
	} else {
		eng.Enqueue(first)
	}
	if !rec.write {
		c.load, c.loadDone = last, rec.doneCycle
	}
	if rec.doneCycle >= c.fbDone {
		c.fb, c.fbDone = last, rec.doneCycle
	}
	return first
}

// feedback is the core's contention delay once the engine has run: how far
// past its zero-load completion the latest-completing access's last event
// finished.
func (c *coreChain) feedback() uint64 {
	if c.fb == nil || c.fb.FinishCycle() <= c.fbDone {
		return 0
	}
	return c.fb.FinishCycle() - c.fbDone
}
