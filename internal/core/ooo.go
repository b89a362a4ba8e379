package core

import (
	"zsim/internal/arena"
	"zsim/internal/bpred"
	"zsim/internal/cache"
	"zsim/internal/isa"
	"zsim/internal/stats"
	"zsim/internal/trace"
)

// OOOConfig holds the microarchitectural parameters of the out-of-order core
// model. Defaults (OOOWestmere) follow the validated Westmere configuration:
// 4-wide issue and retire, a 36-entry reservation-station-like issue window
// approximated through the port scheduler, a 128-entry ROB, 48-entry load
// queue and 32-entry store queue, 16-bytes-per-cycle fetch and a 17-cycle
// misprediction recovery.
type OOOConfig struct {
	IssueWidth       int
	RetireWidth      int
	ROBSize          int
	LoadQueueSize    int
	StoreQueueSize   int
	FetchBytesPerCyc int
	MispredictCycles uint64
}

// schedWindowCycles bounds how far ahead of the issue clock a µop may be
// scheduled on a port (the future window of port occupancy).
const schedWindowCycles = 256

// OOOWestmere returns the Westmere-class configuration used for validation.
func OOOWestmere() OOOConfig {
	return OOOConfig{
		IssueWidth:       4,
		RetireWidth:      4,
		ROBSize:          128,
		LoadQueueSize:    48,
		StoreQueueSize:   32,
		FetchBytesPerCyc: 16,
		MispredictCycles: 17,
	}
}

// storeEntry is one entry of the store queue, used for store-to-load
// forwarding and TSO ordering.
type storeEntry struct {
	lineAddr   uint64
	dataCycle  uint64 // cycle at which the store's data is available
	commitDone uint64 // cycle at which the store has drained to the L1D
}

// OOO is the detailed out-of-order core model. It is instruction-driven: each
// µop passes through fetch, decode, issue and retire in a single call,
// updating the per-stage clocks and the structures that couple them (register
// scoreboard, port-occupancy window, ROB, load/store queues), exactly as
// described in Section 3.1 and Figure 1 of the paper.
type OOO struct {
	memUnit
	cfg  OOOConfig
	cnt  Counters
	pred *bpred.TwoLevel

	// Per-stage clocks.
	fetchClock  uint64
	decodeClock uint64
	issueClock  uint64
	retireClock uint64

	// Register scoreboard: cycle at which each architectural register's value
	// becomes available.
	scoreboard [isa.NumRegs]uint64

	// Port-occupancy window: portBusy[c%len][p] reports whether port p is
	// taken at absolute cycle c. windowBase is the lowest absolute cycle with
	// valid entries; entries below it are stale and cleared lazily as the
	// window slides forward.
	portBusy   [][isa.NumPorts]bool
	windowBase uint64

	// ROB: retire cycle of each in-flight µop, in allocation order.
	rob     []uint64
	robHead int

	// Issue and retire bandwidth accounting within the current cycle.
	issuedThisCycle  int
	issueCycle       uint64
	retiredThisCycle int
	retireCycle      uint64

	// Load/store queues.
	storeQ []storeEntry
	loadQ  []uint64 // completion cycles of in-flight loads

	// Fetch state.
	lastFetchLine uint64
	// pendingRedirect is the cycle at which the frontend may resume fetching
	// after a branch misprediction detected in a previous block.
	pendingRedirect uint64

	// fenceUntil serializes memory operations after a fence µop.
	fenceUntil uint64

	// doneBuf is the reusable per-block µop completion-cycle scratch consumed
	// by the template-driven dispatch loop (in-block dependence edges index
	// into it).
	doneBuf []uint64
}

// NewOOO creates an out-of-order core with the given configuration.
func NewOOO(id int, cfg OOOConfig, ports MemPorts, reg *stats.Registry) *OOO {
	if cfg.IssueWidth < 1 {
		cfg.IssueWidth = 4
	}
	if cfg.RetireWidth < 1 {
		cfg.RetireWidth = 4
	}
	if cfg.ROBSize < 8 {
		cfg.ROBSize = 128
	}
	if cfg.FetchBytesPerCyc < 1 {
		cfg.FetchBytesPerCyc = 16
	}
	if cfg.MispredictCycles == 0 {
		cfg.MispredictCycles = 17
	}
	if cfg.LoadQueueSize < 1 {
		cfg.LoadQueueSize = 48
	}
	if cfg.StoreQueueSize < 1 {
		cfg.StoreQueueSize = 32
	}
	a := reg.Arena()
	c := arena.One[OOO](a)
	c.memUnit = memUnit{id: id, ports: ports}
	c.cfg = cfg
	c.pred = bpred.New(a)
	c.portBusy = arena.Take[[isa.NumPorts]bool](a, schedWindowCycles)
	c.rob = arena.Take[uint64](a, cfg.ROBSize)
	// Pre-size the load/store queues and the per-block scratch so the
	// steady-state simulation loop never grows them on the heap.
	c.loadQ = arena.TakeCap[uint64](a, 0, cfg.LoadQueueSize)
	c.storeQ = arena.TakeCap[storeEntry](a, 0, cfg.StoreQueueSize)
	c.doneBuf = arena.TakeCap[uint64](a, 0, 64)
	reg.Record(&c.cnt)
	return c
}

// Cycle returns the retire-stage clock (the architected completion point).
func (c *OOO) Cycle() uint64 { return c.retireClock }

// Instrs returns the instruction count.
func (c *OOO) Instrs() uint64 { return c.cnt.Instrs }

// Uops returns the µop count.
func (c *OOO) Uops() uint64 { return c.cnt.Uops }

// BranchStats returns (predictions, mispredictions).
func (c *OOO) BranchStats() (uint64, uint64) { return c.cnt.BrPred, c.cnt.BrMiss }

// AddDelay applies weave-phase feedback by advancing every stage clock.
func (c *OOO) AddDelay(cycles uint64) {
	c.fetchClock += cycles
	c.decodeClock += cycles
	c.issueClock += cycles
	c.retireClock += cycles
	c.cnt.Cycles = c.retireClock
}

// SetCycle fast-forwards all clocks to at least the given cycle.
func (c *OOO) SetCycle(cycle uint64) {
	if cycle > c.retireClock {
		delta := cycle - c.retireClock
		c.AddDelay(delta)
	}
}

// ContextSwitch invalidates the fetch micro-state when a different software
// thread is placed on the core, so the incoming thread refetches its first
// I-cache line instead of inheriting the outgoing thread's.
func (c *OOO) ContextSwitch() { c.lastFetchLine = ^uint64(0) }

// Reset restores the just-constructed state for warm reuse: every stage
// clock, the scoreboard, the port window, the ROB and the load/store queues
// go back to zero, keeping their arena-backed capacity. The per-block
// done-cycle scratch is kept as-is: every entry is written before it is read
// within a block, so stale values can never leak into timing.
func (c *OOO) Reset() {
	c.memUnit.reset()
	c.cnt = Counters{}
	c.fetchClock, c.decodeClock, c.issueClock, c.retireClock = 0, 0, 0, 0
	c.scoreboard = [isa.NumRegs]uint64{}
	for i := range c.portBusy {
		c.portBusy[i] = [isa.NumPorts]bool{}
	}
	c.windowBase = 0
	clear(c.rob)
	c.robHead = 0
	c.issuedThisCycle, c.issueCycle = 0, 0
	c.retiredThisCycle, c.retireCycle = 0, 0
	c.storeQ = c.storeQ[:0]
	c.loadQ = c.loadQ[:0]
	c.lastFetchLine = 0
	c.pendingRedirect = 0
	c.fenceUntil = 0
	c.pred.Reset()
}

// SimulateBlock simulates one dynamic basic block: the instruction fetch
// (including branch prediction and I-cache access), the frontend decode
// stalls, and every µop's dispatch, port scheduling, execution and
// retirement.
func (c *OOO) SimulateBlock(b *trace.DynBlock) {
	d := b.Decoded
	if d == nil {
		return
	}

	// --- Fetch stage ---------------------------------------------------
	// Resume after any pending misprediction redirect.
	if c.pendingRedirect > c.fetchClock {
		c.cnt.FetchStall += c.pendingRedirect - c.fetchClock
		c.fetchClock = c.pendingRedirect
		c.pendingRedirect = 0
	}
	// Instruction-cache access, one per line the block spans.
	firstLine := cache.LineAddr(d.Addr)
	lastLine := cache.LineAddr(d.Addr + d.Bytes)
	for lineA := firstLine; lineA <= lastLine; lineA++ {
		if lineA == c.lastFetchLine {
			continue
		}
		c.lastFetchLine = lineA
		c.cnt.Fetches++
		avail := c.access(c.ports.L1I, lineA, false, c.fetchClock)
		if avail > c.fetchClock {
			hitLat := uint64(lineHitLatency(c.ports.L1I))
			if avail-c.fetchClock > hitLat {
				// I-cache miss: the frontend stalls for the excess latency.
				c.cnt.FetchStall += avail - c.fetchClock - hitLat
				c.fetchClock = avail - hitLat
			}
		}
	}
	// Fetch bandwidth: the block's bytes drain at FetchBytesPerCyc.
	c.fetchClock += (d.Bytes + uint64(c.cfg.FetchBytesPerCyc) - 1) / uint64(c.cfg.FetchBytesPerCyc)

	// --- Decode stage ----------------------------------------------------
	if c.decodeClock < c.fetchClock {
		c.decodeClock = c.fetchClock
	}
	c.decodeClock += uint64(d.DecodeCycles)

	// --- Issue / execute / retire, one µop at a time --------------------
	// The block's translation-time skeleton (d.Tmpl) already names each µop's
	// in-block producer, so operand readiness is resolved from the block-local
	// done-cycle scratch; the architectural scoreboard is consulted only for
	// cross-block sources and written back only from the live-out list.
	blockIssue := c.decodeClock // µops cannot issue before the block is decoded
	done := c.doneBuf
	if cap(done) < len(d.Uops) {
		done = make([]uint64, len(d.Uops))
		c.doneBuf = done
	}
	done = done[:len(d.Uops)]
	for i := range d.Uops {
		u := &d.Uops[i]
		tm := &d.Tmpl[i]
		// Minimum dispatch cycle: operand readiness from the in-block
		// dependence edges or the cross-block scoreboard, then fence ordering.
		dispatch := blockIssue
		if tm.Dep1 >= 0 {
			if t := done[tm.Dep1]; t > dispatch {
				dispatch = t
			}
		} else if tm.Ext1 != isa.RegZero {
			if t := c.scoreboard[tm.Ext1]; t > dispatch {
				dispatch = t
			}
		}
		if tm.Dep2 >= 0 {
			if t := done[tm.Dep2]; t > dispatch {
				dispatch = t
			}
		} else if tm.Ext2 != isa.RegZero {
			if t := c.scoreboard[tm.Ext2]; t > dispatch {
				dispatch = t
			}
		}
		if tm.OrderedMem && c.fenceUntil > dispatch {
			dispatch = c.fenceUntil
		}
		done[i] = c.simulateUop(b, u, dispatch)
	}
	// Cross-block register liveness: publish the block's live-out values.
	for i := range d.LiveOut {
		lw := &d.LiveOut[i]
		c.scoreboard[lw.Reg] = done[lw.Uop]
	}

	c.cnt.Instrs += uint64(d.Instrs)
	c.cnt.Uops += uint64(len(d.Uops))

	// --- Branch resolution ----------------------------------------------
	if d.CondBranch {
		c.cnt.BrPred++
		if !c.pred.PredictAndUpdate(b.BranchPC, b.Taken) {
			c.cnt.BrMiss++
			// The redirect takes effect when the branch resolves (the RIP
			// scoreboard entry carries the branch µop's completion cycle)
			// plus the fixed recovery penalty. Wrong-path fetch pollution:
			// fetch one wrong-path line into the L1I.
			resolve := c.scoreboard[isa.RIP]
			if resolve < c.issueClock {
				resolve = c.issueClock
			}
			c.pendingRedirect = resolve + c.cfg.MispredictCycles
			wrongPath := cache.LineAddr(d.Addr+d.Bytes) + 1
			c.access(c.ports.L1I, wrongPath, false, c.fetchClock)
			c.cnt.Fetches++
		}
	}
	c.cnt.Cycles = c.retireClock
}

// simulateUop runs one µop through dispatch, port scheduling, execution and
// retirement, and returns its completion cycle. The caller (SimulateBlock)
// has already resolved operand readiness and fence ordering into dispatch
// using the block's translation-time skeleton.
func (c *OOO) simulateUop(b *trace.DynBlock, u *isa.Uop, dispatch uint64) uint64 {
	// (3) Issue width: at most IssueWidth µops enter the window per cycle.
	// Register-file (RRF) read bandwidth is not modeled.
	if c.issueCycle != c.issueClock {
		c.issueCycle = c.issueClock
		c.issuedThisCycle = 0
	}
	c.issuedThisCycle++
	if c.issuedThisCycle >= c.cfg.IssueWidth {
		c.issueClock++
		c.issuedThisCycle = 0
	}
	if dispatch < c.issueClock {
		stall := c.issueClock - dispatch
		c.cnt.IssueStall += stall
		dispatch = c.issueClock
	}

	// ROB occupancy: reuse the oldest entry; if it retires in the future, the
	// issue stage stalls until then (the paper's head-of-line ROB stall).
	oldestRetire := c.rob[c.robHead]
	if oldestRetire > dispatch {
		c.cnt.IssueStall += oldestRetire - dispatch
		dispatch = oldestRetire
		if c.issueClock < dispatch {
			c.issueClock = dispatch
		}
	}

	// (4) Port scheduling: first cycle >= dispatch with a free compatible port.
	execCycle, port := c.schedulePort(u.Ports, dispatch)

	// (5) Memory µops access the hierarchy at their execution cycle.
	var doneCycle uint64
	switch u.Type {
	case isa.UopLoad:
		c.cnt.Loads++
		addr := addrFor(b, u.MemSlot)
		lineA := cache.LineAddr(addr)
		if fwd, ok := c.storeForward(lineA, execCycle); ok {
			// Store-to-load forwarding: data comes from the store queue.
			doneCycle = fwd
		} else {
			avail := c.access(c.ports.L1D, lineA, false, execCycle)
			doneCycle = avail
		}
		c.pushLoad(doneCycle)
	case isa.UopStAddr:
		// Store-address generation completes quickly; the store's data and
		// drain are tracked by the matching StData µop.
		doneCycle = execCycle + uint64(u.Lat)
	case isa.UopStData:
		c.cnt.Stores++
		addr := addrFor(b, u.MemSlot)
		lineA := cache.LineAddr(addr)
		// The store drains to the L1D after it commits; under TSO it does not
		// stall the core unless the store queue is full.
		drain := c.access(c.ports.L1D, lineA, true, execCycle)
		doneCycle = execCycle
		c.pushStore(lineA, execCycle, drain)
	case isa.UopFence:
		// Fences wait for the store queue to drain.
		doneCycle = execCycle + uint64(u.Lat)
		if d := c.storeQueueDrain(); d > doneCycle {
			doneCycle = d
		}
		c.fenceUntil = doneCycle
	default:
		doneCycle = execCycle + uint64(u.Lat)
	}

	// (6) The destination-register update happens in SimulateBlock: in-block
	// consumers read the done-cycle scratch, and the architectural scoreboard
	// is written once per block from the live-out list.

	// (7) Retire: in order, bounded by retire width.
	retire := doneCycle
	if retire < c.retireClock {
		retire = c.retireClock
	}
	if c.retireCycle != retire {
		c.retireCycle = retire
		c.retiredThisCycle = 0
	}
	c.retiredThisCycle++
	if c.retiredThisCycle >= c.cfg.RetireWidth {
		retire++
		c.retiredThisCycle = 0
	}
	c.retireClock = retire
	c.rob[c.robHead] = retire
	c.robHead = (c.robHead + 1) % len(c.rob)
	_ = port
	return doneCycle
}

// schedulePort finds the first cycle >= earliest with a free port compatible
// with the mask, marks it busy, and returns (cycle, port).
func (c *OOO) schedulePort(mask isa.PortMask, earliest uint64) (uint64, int) {
	w := uint64(len(c.portBusy))
	// Slide the window forward if earliest is beyond it; everything below the
	// new base is in the past and can be cleared lazily.
	if earliest < c.windowBase {
		earliest = c.windowBase
	}
	if earliest >= c.windowBase+w {
		// Clear the whole window; it has fully slid past.
		for i := range c.portBusy {
			c.portBusy[i] = [isa.NumPorts]bool{}
		}
		c.windowBase = earliest
	}
	for cyc := earliest; ; cyc++ {
		if cyc >= c.windowBase+w {
			// Slide the window by one cycle: the slot that wraps around
			// becomes the new frontier and must be cleared.
			c.portBusy[c.windowBase%w] = [isa.NumPorts]bool{}
			c.windowBase++
		}
		slot := &c.portBusy[cyc%w]
		for p := 0; p < isa.NumPorts; p++ {
			if mask.Has(p) && !slot[p] {
				slot[p] = true
				return cyc, p
			}
		}
	}
}

// pushStore records a committed store for forwarding and drain tracking.
func (c *OOO) pushStore(lineAddr, dataCycle, drainCycle uint64) {
	if len(c.storeQ) >= c.cfg.StoreQueueSize && c.cfg.StoreQueueSize > 0 {
		// Store queue full: the oldest store must drain before this one can
		// enter; this back-pressures the issue stage.
		oldest := c.storeQ[0]
		if oldest.commitDone > c.issueClock {
			c.cnt.IssueStall += oldest.commitDone - c.issueClock
			c.issueClock = oldest.commitDone
		}
		// Compact in place so the queue keeps its (arena-backed) capacity.
		copy(c.storeQ, c.storeQ[1:])
		c.storeQ = c.storeQ[:len(c.storeQ)-1]
	}
	c.storeQ = append(c.storeQ, storeEntry{lineAddr: lineAddr, dataCycle: dataCycle, commitDone: drainCycle})
}

// storeForward returns the forwarding completion cycle if a store to the same
// line is still in the store queue (newest match wins).
func (c *OOO) storeForward(lineAddr uint64, loadCycle uint64) (uint64, bool) {
	for i := len(c.storeQ) - 1; i >= 0; i-- {
		if c.storeQ[i].lineAddr == lineAddr {
			done := c.storeQ[i].dataCycle + 1 // 1-cycle forwarding latency
			if done < loadCycle {
				done = loadCycle + 1
			}
			return done, true
		}
	}
	return 0, false
}

// pushLoad tracks an in-flight load; a full load queue back-pressures issue.
func (c *OOO) pushLoad(doneCycle uint64) {
	if c.cfg.LoadQueueSize > 0 && len(c.loadQ) >= c.cfg.LoadQueueSize {
		oldest := c.loadQ[0]
		if oldest > c.issueClock {
			c.cnt.IssueStall += oldest - c.issueClock
			c.issueClock = oldest
		}
		// Compact in place so the queue keeps its (arena-backed) capacity.
		copy(c.loadQ, c.loadQ[1:])
		c.loadQ = c.loadQ[:len(c.loadQ)-1]
	}
	c.loadQ = append(c.loadQ, doneCycle)
}

// storeQueueDrain returns the cycle at which all stores currently in the
// queue have drained.
func (c *OOO) storeQueueDrain() uint64 {
	var max uint64
	for _, s := range c.storeQ {
		if s.commitDone > max {
			max = s.commitDone
		}
	}
	return max
}
