package boundweave

import (
	"zsim/internal/cache"
	"zsim/internal/event"
	"zsim/internal/memctrl"
	"zsim/internal/noc"
)

// accessRecord is one bound-phase memory access that left the private cache
// levels: its zero-load issue cycle, whether it was a store, and the hops it
// performed.
type accessRecord struct {
	issueCycle uint64
	write      bool
	hops       []cache.Hop
}

// Recorder is the per-core bound-phase trace: it receives every recorded
// access from its core (via the core.AccessRecorder interface) and keeps the
// ones that touch shared components (L3 banks, memory controllers), which are
// the accesses the weave phase retimes. Each core has its own recorder and is
// driven by one host thread, so no locking is needed.
//
// The recorder owns a freelist of hop buffers: RecordAccess takes ownership
// of the consumed trace's buffer and hands a recycled one back to the core,
// and Reset (called after each weave phase) returns every retained buffer to
// the freelist. After the first few intervals the record path therefore
// performs no heap allocation.
type Recorder struct {
	coreID int
	shared []bool // dense component-ID -> weave-retimed table
	recs   []accessRecord
	free   [][]cache.Hop
	// Dropped counts accesses that stayed within the private levels and were
	// therefore not recorded (contention there is dominated by the core
	// itself and is modeled in the bound phase).
	Dropped uint64
}

// NewRecorder creates a recorder for one core. shared is the set of component
// IDs whose events are weave-simulated.
func NewRecorder(coreID int, shared map[int]bool) *Recorder {
	return &Recorder{coreID: coreID, shared: denseShared(shared)}
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

// RecordAccess implements core.AccessRecorder. It keeps traces that touch a
// shared component and returns a recycled hop buffer for the core's next
// access.
func (r *Recorder) RecordAccess(coreID int, issueCycle uint64, write bool, hops []cache.Hop) []cache.Hop {
	touchesShared := false
	for i := range hops {
		if c := hops[i].Comp; c >= 0 && c < len(r.shared) && r.shared[c] {
			touchesShared = true
			break
		}
	}
	if !touchesShared {
		r.Dropped++
		return hops[:0] // the caller keeps reusing its own buffer
	}
	r.recs = append(r.recs, accessRecord{issueCycle: issueCycle, write: write, hops: hops})
	if n := len(r.free); n > 0 {
		buf := r.free[n-1]
		r.free = r.free[:n-1]
		return buf
	}
	return nil
}

// Len returns the number of recorded accesses in the current interval.
func (r *Recorder) Len() int { return len(r.recs) }

// Reset clears the interval's records (called after the weave phase),
// returning their hop buffers to the freelist for the next interval.
func (r *Recorder) Reset() {
	for i := range r.recs {
		r.free = append(r.free, r.recs[i].hops[:0])
		r.recs[i].hops = nil
	}
	r.recs = r.recs[:0]
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

// Reset clears the model between runs.
func (b *BankModel) Reset() {
	b.portFree = 0
	b.mshrFree = b.mshrFree[:0]
}

// weaveModels bundles the per-component contention models used by the weave
// phase of one Simulator, as dense component-ID-indexed tables. fabric and
// routerComp (node-indexed) are non-nil only when NoC contention is enabled.
type weaveModels struct {
	banks      []*BankModel
	mems       []memctrl.ContentionModel
	fabric     *noc.Fabric
	routerComp []int
}

func (m *weaveModels) bank(comp int) *BankModel {
	if comp >= 0 && comp < len(m.banks) {
		return m.banks[comp]
	}
	return nil
}

func (m *weaveModels) mem(comp int) memctrl.ContentionModel {
	if comp >= 0 && comp < len(m.mems) {
		return m.mems[comp]
	}
	return nil
}

// bankExec, memExec and routerExec are the shared weave-event executors. The
// per-event context lives in the event's Ctx/Arg/Flag fields, so building a
// chain never allocates a closure.
func bankExec(ev *event.Event, dispatch uint64) uint64 {
	return ev.Ctx.(*BankModel).Schedule(dispatch, ev.Flag)
}

func memExec(ev *event.Event, dispatch uint64) uint64 {
	return dispatch + ev.Ctx.(memctrl.ContentionModel).RequestLatency(ev.Arg, dispatch, ev.Flag)
}

// routerExec dispatches a packet through one router's output port; Arg
// carries the port index.
func routerExec(ev *event.Event, dispatch uint64) uint64 {
	return ev.Ctx.(*noc.Router).Schedule(int(ev.Arg), dispatch)
}

// buildChain converts one recorded access into a weave event chain and
// returns the chain's response event (at the core), whose finish-vs-bound
// difference is the access's contention delay. Events are allocated from the
// given slab.
//
// prevResp, when non-nil, is the response event of the same core's most
// recent recorded *load*: it becomes a parent of this chain's root,
// serializing the core's later shared-level accesses behind the load the
// core stalled on. A load delayed by contention therefore delays the core's
// subsequent misses, cascading the contention delay through the access
// stream exactly as the stalled bound-phase core would have experienced it.
// Stores do not gate later accesses (the core does not stall on them).
// Without prevResp the root has no parent and is enqueued on eng at once.
func buildChain(slab *event.Slab, eng *event.Engine, rec *accessRecord, coreComp int, models *weaveModels, prevResp *event.Event) *event.Event {
	// Root: the core issues the request at its bound-phase cycle.
	root := slab.Alloc()
	root.Comp = coreComp
	root.MinCycle = rec.issueCycle
	if prevResp != nil {
		prevResp.AddChild(root)
	} else {
		eng.Enqueue(root)
	}

	prev := root
	lastZeroLoadDone := rec.issueCycle
	for i := range rec.hops {
		h := &rec.hops[i]
		switch h.Kind {
		case cache.HopNet:
			// A routed NoC traversal: one event per router along the
			// topology's deterministic route, each occupying its output port.
			// The first router dispatches after the zero-load injection
			// latency; each event's lower bound is its zero-load arrival, so
			// an uncontended route finishes exactly at the bound-phase cycle.
			if fab := models.fabric; fab != nil {
				cur, dst := int(h.Src), int(h.Dst)
				minCycle := h.Cycle + fab.Injection()
				perHop := fab.PerHop()
				for cur != dst {
					next, port := fab.NextHop(cur, dst)
					ev := slab.Alloc()
					ev.Comp = models.routerComp[cur]
					ev.MinCycle = minCycle
					ev.Ctx = fab.Router(cur)
					ev.Arg = uint64(port)
					ev.Exec = routerExec
					prev.AddChild(ev)
					prev = ev
					minCycle += perHop
					cur = next
				}
			}
			lastZeroLoadDone = h.Cycle + uint64(h.Latency)
			continue
		case cache.HopNetMem:
			// The LLC-to-controller link: a single traversal of the owning
			// bank's memory-egress port (the one hop the bound phase charges).
			if fab := models.fabric; fab != nil {
				src := int(h.Src)
				ev := slab.Alloc()
				ev.Comp = models.routerComp[src]
				ev.MinCycle = h.Cycle
				ev.Ctx = fab.Router(src)
				ev.Arg = uint64(fab.MemPort())
				ev.Exec = routerExec
				prev.AddChild(ev)
				prev = ev
			}
			lastZeroLoadDone = h.Cycle + uint64(h.Latency)
			continue
		}
		if bank := models.bank(h.Comp); bank != nil {
			ev := slab.Alloc()
			ev.Comp = h.Comp
			ev.MinCycle = h.Cycle
			ev.Ctx = bank
			ev.Flag = h.Kind == cache.HopMiss
			ev.Exec = bankExec
			prev.AddChild(ev)
			prev = ev
			lastZeroLoadDone = h.Cycle + uint64(h.Latency)
			continue
		}
		if mem := models.mem(h.Comp); mem != nil {
			ev := slab.Alloc()
			ev.Comp = h.Comp
			ev.MinCycle = h.Cycle
			ev.Ctx = mem
			ev.Arg = h.Line
			ev.Flag = h.Kind == cache.HopWB
			ev.Exec = memExec
			prev.AddChild(ev)
			prev = ev
			lastZeroLoadDone = h.Cycle + uint64(h.Latency)
			continue
		}
		// Private-level hops contribute only their zero-load time.
		lastZeroLoadDone = h.Cycle + uint64(h.Latency)
	}

	// Response event back at the core: its lower bound is the access's
	// zero-load completion; its actual finish reflects contention upstream.
	resp := slab.Alloc()
	resp.Comp = coreComp
	resp.MinCycle = lastZeroLoadDone
	prev.AddChild(resp)
	return resp
}
