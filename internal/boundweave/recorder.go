package boundweave

import (
	"zsim/internal/cache"
	"zsim/internal/event"
)

// accessRecord is one bound-phase memory access that left the private
// levels: its zero-load issue and completion cycles, whether it was a store,
// and where its hops — the hops that become weave events, in program order —
// sit in its recorder's hop log (n hops from off). A record holds no
// pointers.
type accessRecord struct {
	issueCycle uint64
	doneCycle  uint64
	off, n     int32
	write      bool
}

// Recorder is the per-core bound-phase trace: it receives, via the
// core.AccessRecorder interface, every access of its core that recorded a
// hop. Only weave components (L3 banks, memory controllers) and network
// links record hops, so every access it receives is one the weave phase
// retimes, and it keeps them all. Each core has its own recorder and is
// driven by one host thread, so no locking is needed.
//
// The hops of an interval's accesses go to one hop log, back to back, and
// the caller keeps its own hop buffer. Reset (called after each weave phase)
// truncates the records and the log, so after the first few intervals the
// record path performs no heap allocation.
type Recorder struct {
	recs []accessRecord
	log  []cache.Hop
}

// NewRecorder creates a recorder. Its arguments are unused; they remain only
// for the benchmark's recorder kernel, which calls it.
func NewRecorder(coreID int, shared map[int]bool) *Recorder { return new(Recorder) }

// RecordAccess implements core.AccessRecorder. It appends the access's hops
// to the hop log and hands the caller's buffer back truncated. The access
// completes, at zero load, when its last hop does.
func (r *Recorder) RecordAccess(coreID int, issueCycle uint64, write bool, hops []cache.Hop) []cache.Hop {
	last := &hops[len(hops)-1]
	r.recs = append(r.recs, accessRecord{issueCycle: issueCycle, doneCycle: last.Cycle + uint64(last.Latency),
		off: int32(len(r.log)), n: int32(len(hops)), write: write})
	r.log = append(r.log, hops...)
	return hops[:0]
}

// hops returns rec's hops from the log.
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

// run executes a bank event, whose Flag marks a miss.
func (b *BankModel) run(ev *event.Event, dispatch uint64) uint64 {
	return b.Schedule(dispatch, ev.Flag)
}

// runEvent executes one weave event on the model of its component. Every
// event carries it, bound once per system (System.exec).
func (s *System) runEvent(ev *event.Event, dispatch uint64) uint64 {
	return s.comps[ev.Comp].run(ev, dispatch)
}

// buildChain allocates a recorded access's events from slab, one per hop in
// program order (one per router along a NoC route), each a child of the one
// before, and returns the first and the last. Each event's lower bound is
// its hop's zero-load arrival, so an uncontended chain finishes exactly at
// the bound-phase cycle. A recorded access has at least one hop, and every
// component has a model, so the chain is never empty.
func (s *System) buildChain(slab *event.Slab, hops []cache.Hop) (first, last *event.Event) {
	add := func(comp int, minCycle, arg uint64, flag bool) {
		ev := slab.Alloc()
		ev.Comp, ev.MinCycle, ev.Exec, ev.Arg, ev.Flag = comp, minCycle, s.exec, arg, flag
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
			minCycle := h.Cycle + s.Fabric.Injection()
			perHop := s.Fabric.PerHop()
			for cur != dst {
				next, port := s.Fabric.NextHop(cur, dst)
				add(s.routerComp(cur), minCycle, uint64(port), false)
				minCycle += perHop
				cur = next
			}
		case cache.HopNetMem:
			// The LLC-to-controller link: a single traversal of the owning
			// bank's memory-egress port (the one hop the bound phase charges).
			add(s.routerComp(int(h.Src)), h.Cycle, uint64(s.Fabric.MemPort()), false)
		default:
			// A bank or controller access, at the line. Only a bank records
			// HopMiss, and its Flag marks it.
			add(h.Comp, h.Cycle, h.Line, h.Kind == cache.HopMiss)
		}
	}
	if first == nil {
		panic("boundweave: a recorded access has no hop")
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
func (c *coreChain) add(slab *event.Slab, eng *event.Engine, sys *System, rec *accessRecord, hops []cache.Hop) *event.Event {
	first, last := sys.buildChain(slab, hops)
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
