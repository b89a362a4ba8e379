// Package memctrl implements the memory-controller models:
//
//   - Simple: a fixed, zero-load-latency controller used as the terminal
//     level of the bound phase (contention, if modeled at all, is added in
//     the weave phase).
//   - MD1: a Graphite-style analytical M/D/1 queuing model that computes a
//     load-dependent latency directly in the bound phase. The paper (and
//     prior work it cites) shows this model is inaccurate for bandwidth-bound
//     workloads; it is included as the comparison point for Figure 6.
//   - DDR3: a detailed event-driven weave-phase model with DDR3 timing
//     (closed-page policy, per-bank occupancy, shared data bus, FCFS
//     scheduling, fast powerdown), the model the paper validates against
//     STREAM.
//   - CycleDriven: a DRAMSim2-style cycle-driven model exposing the same
//     weave-phase interface but advancing its state cycle by cycle, used to
//     reproduce the paper's observation that integrating a cycle-driven DRAM
//     model is easy but caps simulation speed.
package memctrl

import (
	"sync"

	"zsim/internal/cache"
	"zsim/internal/stats"
)

// Controller is the bound-phase view of a memory controller: a terminal
// cache.Level that also exposes its access counters.
type Controller interface {
	cache.Level
	// Reads returns the number of read accesses served.
	Reads() uint64
	// Writes returns the number of write (writeback) accesses served.
	Writes() uint64
}

// ContentionModel is the weave-phase view of a memory controller: given a
// request's zero-load arrival cycle it returns the request's latency
// including contention. Weave-phase callers present requests in
// non-decreasing arrival order per controller.
type ContentionModel interface {
	// RequestLatency returns the total latency (in CPU cycles) of a request
	// arriving at the controller at the given cycle.
	RequestLatency(lineAddr uint64, cycle uint64, write bool) uint64
	// Reset restores the model to its just-built state, counters included.
	Reset()
}

// Simple is a fixed-latency memory controller: every access takes the
// zero-load latency. It is the terminal level used by the bound phase. Its
// counters are atomic, so concurrent accesses from many bound-phase host
// threads never serialize on a lock.
type Simple struct {
	compID int
	// Latency is the zero-load latency in CPU cycles (row access + channel
	// transfer, no queuing).
	latency uint32

	reads  *stats.AtomicCounter
	writes *stats.AtomicCounter
}

// NewSimple creates a fixed-latency controller.
func NewSimple(compID int, latency uint32, reg *stats.Registry) *Simple {
	if reg == nil {
		reg = stats.NewRegistry("mem")
	}
	return &Simple{
		compID:  compID,
		latency: latency,
		reads:   reg.Atomic("reads", "read requests served"),
		writes:  reg.Atomic("writes", "write requests served"),
	}
}

// Reads returns the number of reads served.
func (s *Simple) Reads() uint64 { return s.reads.Get() }

// Writes returns the number of writes served.
func (s *Simple) Writes() uint64 { return s.writes.Get() }

// Access serves a request with the fixed zero-load latency.
func (s *Simple) Access(req *cache.Request) uint64 {
	if req.Write {
		s.writes.Inc()
	} else {
		s.reads.Inc()
	}
	if req.RecordHops {
		req.Hops = append(req.Hops, cache.Hop{Comp: s.compID, Kind: cache.HopMem, Line: req.LineAddr, Cycle: req.Cycle, Latency: s.latency})
	}
	return req.Cycle + uint64(s.latency)
}

// MD1 is an analytical M/D/1 queuing model applied in the bound phase: the
// latency of each access is the zero-load latency plus the M/D/1 waiting time
// at the controller's current utilization, estimated from a sliding window of
// recent arrivals. This is the Graphite-style contention model the paper
// compares against (and finds inaccurate for saturating workloads, because
// reordered accesses and open-loop utilization estimates misestimate queuing
// delay).
type MD1 struct {
	compID  int
	latency uint32 // zero-load latency, CPU cycles
	// serviceCycles is the deterministic service time per request (the
	// channel occupancy), which bounds throughput.
	serviceCycles float64

	mu       sync.Mutex
	window   []uint64 // arrival cycles of recent requests (ring buffer)
	widx     int
	wcount   int
	reads    *stats.Counter
	writes   *stats.Counter
	satEvent *stats.Counter
}

// NewMD1 creates an M/D/1 controller. serviceCycles is the per-request
// service (channel occupancy) time in CPU cycles; it determines the
// saturation bandwidth.
func NewMD1(compID int, latency uint32, serviceCycles float64, reg *stats.Registry) *MD1 {
	if reg == nil {
		reg = stats.NewRegistry("mem")
	}
	return &MD1{
		compID:        compID,
		latency:       latency,
		serviceCycles: serviceCycles,
		window:        make([]uint64, 64),
		reads:         reg.Counter("reads", "read requests served"),
		writes:        reg.Counter("writes", "write requests served"),
		satEvent:      reg.Counter("saturated", "requests served at clamped utilization"),
	}
}

// Reads returns the number of reads served.
func (m *MD1) Reads() uint64 { m.mu.Lock(); defer m.mu.Unlock(); return m.reads.Get() }

// Writes returns the number of writes served.
func (m *MD1) Writes() uint64 { m.mu.Lock(); defer m.mu.Unlock(); return m.writes.Get() }

// Utilization estimates the controller's current utilization from the arrival
// window (0 if too few samples).
func (m *MD1) Utilization() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.utilizationLocked()
}

func (m *MD1) utilizationLocked() float64 {
	if m.wcount < len(m.window) {
		return 0
	}
	newest := m.window[(m.widx+len(m.window)-1)%len(m.window)]
	oldest := m.window[m.widx]
	if newest <= oldest {
		return 0
	}
	rate := float64(len(m.window)-1) / float64(newest-oldest)
	return rate * m.serviceCycles
}

// Access serves a request with latency = zero-load + M/D/1 waiting time.
func (m *MD1) Access(req *cache.Request) uint64 {
	m.mu.Lock()
	if req.Write {
		m.writes.Inc()
	} else {
		m.reads.Inc()
	}
	// Record the arrival.
	m.window[m.widx] = req.Cycle
	m.widx = (m.widx + 1) % len(m.window)
	if m.wcount < len(m.window) {
		m.wcount++
	}
	rho := m.utilizationLocked()
	if rho > 0.95 {
		rho = 0.95
		m.satEvent.Inc()
	}
	m.mu.Unlock()

	// M/D/1 mean waiting time: Wq = rho * S / (2 * (1 - rho)).
	wait := rho * m.serviceCycles / (2 * (1 - rho))
	lat := uint64(m.latency) + uint64(wait)
	if req.RecordHops {
		req.Hops = append(req.Hops, cache.Hop{Comp: m.compID, Kind: cache.HopMem, Line: req.LineAddr, Cycle: req.Cycle, Latency: uint32(lat)})
	}
	return req.Cycle + lat
}

// Reset restores the model to its just-built state: an empty arrival window.
// Its counters are registry-owned and zeroed by Registry.Reset.
func (m *MD1) Reset() {
	m.mu.Lock()
	defer m.mu.Unlock()
	clear(m.window)
	m.widx = 0
	m.wcount = 0
}
