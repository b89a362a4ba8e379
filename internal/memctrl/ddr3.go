package memctrl

// DDR3Timing holds the DRAM timing parameters, expressed in memory (bus)
// cycles, of the detailed weave-phase controller model. Defaults follow
// DDR3-1333 with a closed-page policy, matching the validated configuration
// in Table 2 of the paper.
type DDR3Timing struct {
	// CPUCyclesPerMemCycle converts memory cycles to CPU cycles (a 2.27 GHz
	// core with a 666 MHz DDR3-1333 bus gives ~3.4; we use an integer 3 to
	// keep the model in integer arithmetic).
	CPUCyclesPerMemCycle uint64
	// Banks is the number of banks per rank, Ranks the ranks per channel.
	Banks int
	Ranks int
	// tRCD is the row-to-column (activate) delay, tCAS the column access
	// latency, tRP the precharge time, tBurst the data-burst occupancy of the
	// channel, all in memory cycles.
	TRCD   uint64
	TCAS   uint64
	TRP    uint64
	TBurst uint64
	// TWR is the write-recovery time added to write completions.
	TWR uint64
	// PowerdownThreshold is the idle time (memory cycles) after which a bank
	// enters fast powerdown; TXP is the exit latency paid by the next access.
	// Table 2: "fast powerdown with threshold timer = 15 mem cycles".
	PowerdownThreshold uint64
	TXP                uint64
	// QueueDepth caps the number of requests the controller tracks for
	// head-of-line (FCFS) ordering.
	QueueDepth int
}

// DefaultDDR3Timing returns DDR3-1333 closed-page timings.
func DefaultDDR3Timing() DDR3Timing {
	return DDR3Timing{
		CPUCyclesPerMemCycle: 3,
		Banks:                8,
		Ranks:                2,
		TRCD:                 9,
		TCAS:                 9,
		TRP:                  9,
		TBurst:               4,
		TWR:                  10,
		PowerdownThreshold:   15,
		TXP:                  6,
		QueueDepth:           32,
	}
}

// DDR3 is the detailed event-driven memory controller used in the weave
// phase: it models per-bank occupancy (activate + column access + precharge
// under a closed-page policy), contention on the shared data bus, FCFS
// command ordering, and fast powerdown exit latency. It is not safe for
// concurrent use; only the single-threaded weave engine drives it.
type DDR3 struct {
	t DDR3Timing

	// bankFree[i] is the memory cycle at which bank i can accept a new
	// activate; bankIdleSince[i] tracks powerdown eligibility.
	bankFree      []uint64
	bankIdleSince []uint64
	// busFree is the memory cycle at which the data bus is next free.
	busFree uint64
	// lastStart enforces FCFS: a request cannot start before the previous
	// request started.
	lastStart uint64

	// Stats.
	TotalRequests  uint64
	RowConflicts   uint64
	PowerdownExits uint64
	TotalWaitMem   uint64 // total queueing wait in memory cycles
}

// NewDDR3 creates a detailed DDR3 controller model. The name argument is
// unused; it is kept so existing callers compile.
func NewDDR3(_ string, t DDR3Timing) *DDR3 {
	nb := t.Banks * t.Ranks
	if nb < 1 {
		nb = 1
	}
	return &DDR3{
		t:             t,
		bankFree:      make([]uint64, nb),
		bankIdleSince: make([]uint64, nb),
	}
}

// Reset restores the model to its just-built state, counters included.
func (d *DDR3) Reset() {
	clear(d.bankFree)
	clear(d.bankIdleSince)
	*d = DDR3{t: d.t, bankFree: d.bankFree, bankIdleSince: d.bankIdleSince}
}

func (d *DDR3) bankOf(lineAddr uint64) int {
	h := lineAddr * 0x9e3779b97f4a7c15
	h ^= h >> 31
	return int(h % uint64(len(d.bankFree)))
}

// RequestLatency schedules one request arriving (in CPU cycles) at cycle and
// returns its total latency in CPU cycles, including queuing, bank occupancy,
// bus contention and powerdown exit.
func (d *DDR3) RequestLatency(lineAddr uint64, cycle uint64, write bool) uint64 {
	t := &d.t
	arrivalMem := cycle / t.CPUCyclesPerMemCycle
	bank := d.bankOf(lineAddr)

	start := arrivalMem
	if d.lastStart > start {
		start = d.lastStart // FCFS: do not start before the previous request
	}
	if d.bankFree[bank] > start {
		d.RowConflicts++
		start = d.bankFree[bank]
	}

	// Powerdown exit: the bank was idle long enough to power down.
	if d.bankIdleSince[bank]+t.PowerdownThreshold < start && start > t.PowerdownThreshold {
		d.PowerdownExits++
		start += t.TXP
	}

	// Closed-page access: activate (tRCD) then column access (tCAS), then the
	// burst on the shared data bus, then precharge (tRP) to close the row.
	dataStart := start + t.TRCD + t.TCAS
	if d.busFree > dataStart {
		dataStart = d.busFree
	}
	dataDone := dataStart + t.TBurst
	d.busFree = dataDone

	bankBusyUntil := dataDone + t.TRP
	if write {
		bankBusyUntil += t.TWR
	}
	d.bankFree[bank] = bankBusyUntil
	d.bankIdleSince[bank] = bankBusyUntil
	d.lastStart = start
	d.TotalRequests++
	if start > arrivalMem {
		d.TotalWaitMem += start - arrivalMem
	}

	latMem := dataDone - arrivalMem
	return latMem * t.CPUCyclesPerMemCycle
}

// AverageWaitCPU returns the average queuing wait per request in CPU cycles.
func (d *DDR3) AverageWaitCPU() float64 {
	if d.TotalRequests == 0 {
		return 0
	}
	return float64(d.TotalWaitMem*d.t.CPUCyclesPerMemCycle) / float64(d.TotalRequests)
}

// CycleDriven is a DRAMSim2-style cycle-driven DRAM model: it exposes the
// same weave-phase interface as DDR3 but advances an internal clock one
// memory cycle at a time, re-evaluating its bank state machines every tick.
// Its results track the event-driven model closely; its cost is the per-cycle
// stepping, which reproduces the paper's observation that a cycle-driven DRAM
// model caps overall simulation speed (~3 MIPS in the paper).
type CycleDriven struct {
	t DDR3Timing

	clock     uint64 // current memory cycle
	bankBusy  []uint64
	busBusy   uint64
	TotalReqs uint64
	// Ticks counts how many cycles were stepped; the benchmark harness uses
	// it to show the cost of cycle-driven integration.
	Ticks uint64
}

// NewCycleDriven creates a cycle-driven DRAM model.
func NewCycleDriven(t DDR3Timing) *CycleDriven {
	nb := t.Banks * t.Ranks
	if nb < 1 {
		nb = 1
	}
	return &CycleDriven{t: t, bankBusy: make([]uint64, nb)}
}

// Reset restores the model to its just-built state, counters included.
func (c *CycleDriven) Reset() {
	clear(c.bankBusy)
	*c = CycleDriven{t: c.t, bankBusy: c.bankBusy}
}

func (c *CycleDriven) bankOf(lineAddr uint64) int {
	h := lineAddr * 0x9e3779b97f4a7c15
	h ^= h >> 31
	return int(h % uint64(len(c.bankBusy)))
}

// tick advances the internal clock by one memory cycle.
func (c *CycleDriven) tick() {
	c.clock++
	c.Ticks++
}

// RequestLatency steps the model cycle by cycle until the request completes
// and returns the latency in CPU cycles.
func (c *CycleDriven) RequestLatency(lineAddr uint64, cycle uint64, write bool) uint64 {
	t := &c.t
	arrivalMem := cycle / t.CPUCyclesPerMemCycle
	// Advance the clock to the arrival cycle (the weave phase presents
	// requests in non-decreasing order).
	for c.clock < arrivalMem {
		c.tick()
	}
	bank := c.bankOf(lineAddr)
	// Wait until the bank and bus allow the access to start.
	for c.clock < c.bankBusy[bank] {
		c.tick()
	}
	start := c.clock
	dataStart := start + t.TRCD + t.TCAS
	for dataStart < c.busBusy {
		c.tick()
		dataStart++
	}
	dataDone := dataStart + t.TBurst
	c.busBusy = dataDone
	busy := dataDone + t.TRP
	if write {
		busy += t.TWR
	}
	c.bankBusy[bank] = busy
	c.TotalReqs++
	return (dataDone - arrivalMem) * t.CPUCyclesPerMemCycle
}
