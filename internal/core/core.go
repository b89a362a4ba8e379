// Package core implements the instruction-driven core timing models that are
// the paper's first contribution: a simple IPC=1 core and a detailed
// Westmere-class out-of-order core. Both are driven once per µop (or block)
// by the dynamic instruction stream, rather than being stepped every cycle
// (cycle-driven) or scheduled through a priority queue (event-driven). All
// per-instruction decode work (µop fission, port masks, latencies, frontend
// stall cycles) was already done once per static block by isa.Translate, so
// the per-µop work here is a handful of clock updates — this is what gives
// the 10-100x core-model speedup over conventional simulators.
package core

import (
	"zsim/internal/arena"
	"zsim/internal/bpred"
	"zsim/internal/cache"
	"zsim/internal/stats"
	"zsim/internal/trace"
)

// Core is the interface shared by the IPC1 and OOO core models. A core is
// driven by one host thread at a time (the bound phase barrier guarantees
// this), so implementations are not internally synchronized.
type Core interface {
	// SimulateBlock advances the core's timing state over one dynamic basic
	// block, performing the instruction-cache and data-cache accesses it
	// implies.
	SimulateBlock(b *trace.DynBlock)
	// Cycle returns the core's current cycle (the retire-stage clock).
	Cycle() uint64
	// Instrs returns the number of instructions simulated.
	Instrs() uint64
	// Uops returns the number of µops simulated.
	Uops() uint64
	// AddDelay applies weave-phase feedback: it advances every internal clock
	// by the given number of cycles (the contention-induced delay of the
	// core's accesses in the previous interval).
	AddDelay(cycles uint64)
	// SetCycle fast-forwards the core's clocks to at least the given cycle
	// (used when a descheduled thread is rescheduled onto the core, and at
	// interval joins).
	SetCycle(cycle uint64)
	// ContextSwitch notifies the core that a different software thread is
	// about to run on it (mid-interval rescheduling or time multiplexing):
	// transient micro-state tied to the outgoing thread's instruction stream
	// (e.g. the last-fetched I-cache line) is invalidated so the incoming
	// thread pays its own first fetch.
	ContextSwitch()
	// SetRecorder installs the bound-phase access recorder used to build
	// weave events; a nil recorder (the default) disables recording.
	SetRecorder(rec AccessRecorder)
	// SetObserver installs a line-granularity access observer (used by the
	// path-altering-interference profiler); nil disables it.
	SetObserver(obs cache.AccessObserver)
	// SetLineCursor installs the line-slab cursor of the bound worker about
	// to run the core; the core's requests carry it to the caches. nil (the
	// default) takes the slab's shared cursor.
	SetLineCursor(cur *cache.LineCursor)
	// Reset restores the core to its just-constructed state (clocks, branch
	// predictor, pipeline structures, transient fetch state, statistics) for
	// warm-simulator reuse; installed recorders and observers are removed
	// (the simulator re-installs them). The core must be quiescent.
	Reset()
	// BranchStats returns (predicted, mispredicted) conditional-branch
	// counts: the core's branchPredictions and branchMispredicts statistics.
	BranchStats() (uint64, uint64)
}

// AccessRecorder receives, for every memory access that records a hop while
// recording is enabled, the zero-load issue cycle and the hops the access
// recorded. Only accesses that leave the private cache levels record hops
// (at the L3 banks, the memory controllers and the network), and the
// bound-weave driver builds weave events from them.
//
// RecordAccess takes ownership of the hops slice and returns the hop buffer
// (length 0, possibly nil) for the core's next access. The bound-weave
// recorder copies the hops and hands the core's own buffer back, so
// the steady-state record path is allocation-free. write distinguishes
// stores (which do not stall the core) from loads, so the weave phase can
// serialize a core's access stream behind its loads only.
type AccessRecorder interface {
	RecordAccess(coreID int, issueCycle uint64, write bool, hops []cache.Hop) []cache.Hop
}

// MemPorts bundles the cache ports a core issues accesses to.
type MemPorts struct {
	L1I cache.Level
	L1D cache.Level
}

// memUnit is the access machinery shared by the core models: the cache
// ports, the installed recorder and observer, and the pooled request, whose
// recycled hop buffer makes the steady-state access path allocation-free. Core models embed it and issue every hierarchy access
// through its access method.
type memUnit struct {
	id    int
	ports MemPorts
	rec   AccessRecorder
	obs   cache.AccessObserver

	// req is the core's reusable request (one access is in flight at a
	// time). Its CoreID, RecordHops and Lines (the installed line cursor)
	// are set where they change: at construction, SetRecorder and
	// SetLineCursor. Its Hops is the recycled hop buffer, emptied by each
	// access.
	req cache.Request
}

// newMemUnit returns the access machinery of core id.
func newMemUnit(id int, ports MemPorts) memUnit {
	return memUnit{id: id, ports: ports, req: cache.Request{CoreID: id}}
}

// SetRecorder installs the access recorder.
func (m *memUnit) SetRecorder(rec AccessRecorder) {
	m.rec = rec
	m.req.RecordHops = rec != nil
}

// SetObserver installs the line-access observer.
func (m *memUnit) SetObserver(obs cache.AccessObserver) { m.obs = obs }

// SetLineCursor installs the running bound worker's line-slab cursor.
func (m *memUnit) SetLineCursor(cur *cache.LineCursor) { m.req.Lines = cur }

// reset clears the unit's transient state (in-flight request, installed
// recorder, observer and line cursor) while keeping the identity, ports and
// the recycled hop buffer's capacity. A fresh core's hop buffer is nil and a
// reused one is a zero-length warm buffer; both are fully overwritten before
// any read.
func (m *memUnit) reset() {
	m.rec = nil
	m.obs = nil
	m.req = cache.Request{CoreID: m.id, Hops: m.req.Hops[:0]}
}

// access issues one request to a cache port, reporting it to the observer
// first (once per core access, whatever levels it then reaches) and recording
// hops when a recorder is installed. The request struct and the hop buffer
// are reused across accesses, and an access writes only the request fields
// that differ between accesses: the caches read FillState and the
// directory index only after setting them, and restore the index of a
// request they forward. So the steady-state access path allocates and
// copies nothing.
func (m *memUnit) access(port cache.Level, lineAddr uint64, write bool, cycle uint64) uint64 {
	if port == nil {
		return cycle
	}
	if m.obs != nil {
		m.obs.ObserveAccess(lineAddr, write, m.id, cycle)
	}
	req := &m.req
	req.LineAddr, req.Write, req.Cycle, req.Hops = lineAddr, write, cycle, req.Hops[:0]
	avail := port.Access(req)
	if m.rec != nil && len(req.Hops) > 0 {
		req.Hops = m.rec.RecordAccess(m.id, cycle, write, req.Hops)
	}
	return avail
}

// Counters are the statistics every core model counts.
type Counters struct {
	Instrs, Uops, Cycles, Loads, Stores, Fetches uint64
	BrPred, BrMiss, FetchStall, IssueStall       uint64
}

// VisitStats reports the counters in export order (stats.Source).
func (n *Counters) VisitStats(f func(name, desc string, v uint64)) {
	f("instrs", "instructions simulated", n.Instrs)
	f("uops", "µops simulated", n.Uops)
	f("cycles", "core cycles elapsed", n.Cycles)
	f("loads", "load µops issued to the L1D", n.Loads)
	f("stores", "store µops issued to the L1D", n.Stores)
	f("fetches", "instruction-fetch accesses to the L1I", n.Fetches)
	f("branchPredictions", "conditional branches predicted", n.BrPred)
	f("branchMispredicts", "conditional branches mispredicted", n.BrMiss)
	f("fetchStallCycles", "cycles lost to frontend stalls", n.FetchStall)
	f("issueStallCycles", "cycles lost to backend (issue) stalls", n.IssueStall)
}

// IPC1 is the simple core model: one cycle per instruction, plus the memory
// hierarchy's latency for loads (stores are buffered and do not stall), plus
// instruction-fetch stalls. It is the model architects use for quick cache
// studies, and the "IPC1" configuration of the paper's evaluation.
type IPC1 struct {
	memUnit
	cnt Counters

	cycle     uint64
	lastFetch uint64 // line address of the last fetched I-cache line
	pred      bpred.TwoLevel
}

// NewIPC1 creates a simple core. When the registry tree carries a
// construction arena, the core object is carved from it; the predictor's
// table comes from the heap on the core's first branch.
func NewIPC1(id int, ports MemPorts, reg *stats.Registry) *IPC1 {
	c := arena.One[IPC1](reg.Arena())
	c.memUnit = newMemUnit(id, ports)
	reg.Record(&c.cnt)
	return c
}

// Cycle returns the core's current cycle.
func (c *IPC1) Cycle() uint64 { return c.cycle }

// Instrs returns the instruction count.
func (c *IPC1) Instrs() uint64 { return c.cnt.Instrs }

// Uops returns the µop count.
func (c *IPC1) Uops() uint64 { return c.cnt.Uops }

// BranchStats returns (predictions, mispredictions).
func (c *IPC1) BranchStats() (uint64, uint64) { return c.cnt.BrPred, c.cnt.BrMiss }

// AddDelay applies weave-phase feedback.
func (c *IPC1) AddDelay(cycles uint64) {
	c.cycle += cycles
	c.cnt.Cycles = c.cycle
}

// SetCycle fast-forwards the core clock.
func (c *IPC1) SetCycle(cycle uint64) {
	if cycle > c.cycle {
		c.cycle = cycle
		c.cnt.Cycles = c.cycle
	}
}

// ContextSwitch invalidates the fetch micro-state when a different software
// thread is placed on the core, so the incoming thread refetches its first
// I-cache line instead of inheriting the outgoing thread's.
func (c *IPC1) ContextSwitch() { c.lastFetch = ^uint64(0) }

// Reset restores the just-constructed state for warm reuse.
func (c *IPC1) Reset() {
	c.memUnit.reset()
	c.cnt = Counters{}
	c.cycle = 0
	c.lastFetch = 0
	c.pred.Reset()
}

// SimulateBlock simulates one dynamic block on the simple core.
func (c *IPC1) SimulateBlock(b *trace.DynBlock) {
	d := b.Decoded
	if d == nil {
		return
	}

	// Instruction fetch: one L1I access per new I-cache line touched.
	fetchLine := cache.LineAddr(d.Addr)
	if fetchLine != c.lastFetch {
		c.lastFetch = fetchLine
		c.cnt.Fetches++
		avail := c.access(c.ports.L1I, fetchLine, false, c.cycle)
		if avail > c.cycle {
			// The simple model charges I-cache miss latency fully.
			lat := avail - c.cycle
			if lat > uint64(lineHitLatency(c.ports.L1I)) {
				c.cnt.FetchStall += lat
				c.cycle = avail
			}
		}
	}

	// One cycle per instruction, using the block's precomputed aggregates.
	c.cycle += uint64(d.Instrs)
	c.cnt.Instrs += uint64(d.Instrs)
	c.cnt.Uops += uint64(d.NumUops)
	c.cnt.Loads += uint64(d.Loads)
	c.cnt.Stores += uint64(d.Stores)

	// Memory operations: loads stall the core for their full latency, stores
	// are sent to the hierarchy but do not stall. The block's timing template
	// lists exactly the memory µops, so the simple core's per-block work is
	// O(memory accesses) rather than O(µops).
	memOps := b.Program.MemOps(d)
	for i := range memOps {
		m := &memOps[i]
		addr := addrFor(b, m.Slot)
		if m.Store {
			c.access(c.ports.L1D, cache.LineAddr(addr), true, c.cycle)
		} else {
			avail := c.access(c.ports.L1D, cache.LineAddr(addr), false, c.cycle)
			if avail > c.cycle {
				c.cycle = avail
			}
		}
	}

	// Branch prediction: mispredictions add a fixed penalty even on the
	// simple core (this keeps branch MPKI statistics meaningful).
	if d.CondBranch {
		c.cnt.BrPred++
		if !c.pred.PredictAndUpdate(b.BranchPC, b.Taken) {
			c.cnt.BrMiss++
			c.cycle += mispredictPenalty
		}
	}
	c.cnt.Cycles = c.cycle
}

// lineHitLatency returns the hit latency of a cache.Level if it is a *cache.Cache.
func lineHitLatency(l cache.Level) uint32 {
	if cc, ok := l.(*cache.Cache); ok {
		return cc.Latency()
	}
	return 0
}

// addrFor returns the dynamic address for a memory slot, tolerating blocks
// whose address list is shorter than expected (defensive: the generator
// guarantees one address per slot).
func addrFor(b *trace.DynBlock, slot int8) uint64 {
	if slot < 0 || int(slot) >= len(b.Addrs) {
		return 0
	}
	return b.Addrs[slot]
}

// mispredictPenalty is the fixed branch-misprediction recovery penalty in
// cycles (Westmere recovers in ~17 cycles).
const mispredictPenalty = 17
