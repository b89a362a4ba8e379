// Package noc is the weave-phase network-on-chip contention subsystem. The
// paper's contention modeling (Section 3.2.2) covers pipelined cache banks
// with MSHRs and DDR3 controllers but leaves the NoC uncontended, arguing
// zero-load latencies capture most of the impact for well-provisioned
// networks (Section 4.3). This package models the networks that assumption
// does not cover: routers and links become weave components, exactly the way
// cache banks model MSHR and port occupancy.
//
// Each router output port is a pipelined resource with a service interval —
// a packet's flit train occupies the port (and so the link it drives) for
// packetFlits x cycles/flit — and an optionally bounded queue of in-flight
// packets. The bound phase records each traversal's (srcNode, dstNode) as a
// network hop (cache.HopNet / cache.HopNetMem); package boundweave expands
// the hop along the topology's deterministic route into one weave event per
// router, each dispatched on that router's port model. Under zero load every
// event finishes exactly at its bound-phase cycle, so enabling the subsystem
// changes nothing until ports actually back up; the response path inherits
// the request path's accumulated queueing through the event chain.
//
// Routers are ordinary weave components: their state is only touched by the
// weave engine's single, deterministically ordered event stream, so no
// locking is needed and results remain reproducible across GOMAXPROCS and
// host threads.
package noc

import (
	"zsim/internal/arena"
	"zsim/internal/network"
	"zsim/internal/stats"
)

// Config sizes the contention model of every router in a fabric.
type Config struct {
	// PacketFlits is the number of flits in a line-carrying packet; a packet
	// occupies each output port it crosses for PacketFlits x CyclesPerFlit
	// cycles (the flit train's link occupancy).
	PacketFlits int
	// CyclesPerFlit is the link's inverse bandwidth (1 = one flit per cycle).
	CyclesPerFlit int
	// QueueDepth bounds the number of packets queued at one output port
	// (0 = unbounded). A packet arriving at a full queue sits in the
	// upstream buffers until the oldest in-flight flit train drains; the
	// blocking time is charged as extra occupancy on the port, so a
	// backed-up port loses effective bandwidth (with serial service, the
	// slot wait alone would be subsumed by port serialization).
	QueueDepth int
	// MemHopLatency is the zero-load latency of the memory-egress link that
	// connects a router to its memory controller (the single hop the bound
	// phase charges for LLC-to-controller traffic).
	MemHopLatency uint32
}

// portState is one output port of a router: the cycle its link is busy
// until, and (when the queue is bounded) the drain cycles of queued packets.
type portState struct {
	free     uint64
	inflight []uint64
}

// Router is the weave-phase contention model for one node's router. Only the
// single-threaded weave engine drives it, so it needs no locking.
type Router struct {
	perHop     uint64 // zero-load network per-hop latency (link + pipeline)
	memHop     uint64 // zero-load memory-egress link latency
	flitCycles uint64 // port occupancy per packet
	queueDepth int
	ports      []portState // network ports, then one memory-egress port

	// Statistics, exported in the system's registry under noc/router-<n>.
	// A queue-stalled packet always also conflicts on its (necessarily
	// busy) port, so QueueStalls counts a subset of PortConflicts — the
	// packets that additionally cost the port backpressure occupancy.
	Traversals    uint64 // packets scheduled through this router
	BusyCycles    uint64 // total port occupancy charged (incl. backpressure)
	PortConflicts uint64 // packets that found their port busy
	QueueStalls   uint64 // packets that found their port's queue full on arrival
	QueueDelay    uint64 // total cycles packets waited for ports
}

// VisitStats reports the router's statistics (stats.Source).
func (r *Router) VisitStats(f func(name, desc string, v uint64)) {
	f("traversals", "packets scheduled through this router", r.Traversals)
	f("busyCycles", "total output-port occupancy in cycles (incl. backpressure)", r.BusyCycles)
	f("portConflicts", "packets that found their output port busy", r.PortConflicts)
	f("queueStalls", "packets that arrived to a full port queue (subset of portConflicts)", r.QueueStalls)
	f("queueDelay", "total cycles packets waited for output ports", r.QueueDelay)
}

// Schedule dispatches one packet through the router's output port at the
// given cycle and returns the cycle at which the packet's head reaches the
// next node. Contention shows up two ways: the port's link is occupied for
// the flit train's duration, serializing packets (start-cycle pushback);
// and a packet arriving at a full bounded queue sits in the upstream
// buffers until the oldest in-flight train drains, blocking the link behind
// it — charged as extra occupancy on this port, so a backed-up port loses
// effective bandwidth instead of merely serializing.
func (r *Router) Schedule(port int, dispatch uint64) uint64 {
	p := &r.ports[port]
	r.Traversals++
	start := dispatch
	var backpressure uint64
	if r.queueDepth > 0 {
		// Admission: retire flit trains that drained before this packet
		// arrived. If the queue is still full, the packet is stuck in the
		// upstream link until the oldest train frees a slot; that blocking
		// time is bandwidth nothing else can use, so it extends the port's
		// occupancy below. (Serial service means the slot wait itself is
		// always subsumed by the port wait — the bandwidth loss is the
		// queue bound's real cost.)
		live := p.inflight[:0]
		for _, f := range p.inflight {
			if f > dispatch {
				live = append(live, f)
			}
		}
		p.inflight = live
		if len(p.inflight) >= r.queueDepth {
			earliest := p.inflight[0]
			for _, f := range p.inflight {
				if f < earliest {
					earliest = f
				}
			}
			if earliest > dispatch {
				r.QueueStalls++
				// The wasted link time is capped at one train length per
				// admitted packet: trains are admitted serially, so a
				// blocked train can idle the wire for at most its own
				// transmission time (an uncapped charge would compound
				// across packets whose slot waits overlap, and a saturated
				// port would collapse quadratically instead of degrading
				// to its backpressured service rate).
				backpressure = earliest - dispatch
				if backpressure > r.flitCycles {
					backpressure = r.flitCycles
				}
			}
		}
	}
	if p.free > start {
		r.PortConflicts++
		start = p.free
	}
	if r.queueDepth > 0 {
		p.inflight = append(p.inflight, start+r.flitCycles)
	}
	if start > dispatch {
		r.QueueDelay += start - dispatch
	}
	p.free = start + r.flitCycles + backpressure
	r.BusyCycles += r.flitCycles + backpressure
	lat := r.perHop
	if port == len(r.ports)-1 {
		lat = r.memHop
	}
	return start + lat
}

// Reset restores the router to its just-built state: idle clocks, empty
// queues and zero statistics.
func (r *Router) Reset() {
	for i := range r.ports {
		r.ports[i] = portState{inflight: r.ports[i].inflight[:0]}
	}
	r.Traversals, r.BusyCycles, r.PortConflicts, r.QueueStalls, r.QueueDelay = 0, 0, 0, 0, 0
}

// Fabric bundles the topology and the per-node routers of one simulated
// chip's NoC. It is built by the system builder when NoC contention is
// enabled and consulted by the weave phase's translation loop.
type Fabric struct {
	topo    network.Topology
	routers []*Router
	memPort int
}

// NewFabric creates one router per topology node, exporting each router's
// statistics under reg (router-<node>). Every router gets the topology's
// network ports plus one memory-egress port.
func NewFabric(topo network.Topology, cfg Config, reg *stats.Registry) *Fabric {
	if cfg.PacketFlits < 1 {
		cfg.PacketFlits = 1
	}
	if cfg.CyclesPerFlit < 1 {
		cfg.CyclesPerFlit = 1
	}
	a := reg.Arena()
	f := arena.One[Fabric](a)
	f.topo = topo
	f.memPort = topo.NumPorts()
	f.routers = arena.Take[*Router](a, topo.Nodes())
	arena.Reserve[Router](a, topo.Nodes())
	arena.Reserve[portState](a, topo.Nodes()*(topo.NumPorts()+1))
	for n := range f.routers {
		r := arena.One[Router](a)
		r.perHop = uint64(topo.PerHopLatency())
		r.memHop = uint64(cfg.MemHopLatency)
		r.flitCycles = uint64(cfg.PacketFlits) * uint64(cfg.CyclesPerFlit)
		r.queueDepth = cfg.QueueDepth
		r.ports = arena.Take[portState](a, topo.NumPorts()+1)
		reg.ChildIdx("router", n).Record(r)
		f.routers[n] = r
	}
	return f
}

// Router returns node n's router (node indices are normalized like the
// topology's Latency arguments).
func (f *Fabric) Router(n int) *Router {
	if n < 0 || n >= len(f.routers) {
		n = ((n % len(f.routers)) + len(f.routers)) % len(f.routers)
	}
	return f.routers[n]
}

// MemPort returns the index of the memory-egress port on every router.
func (f *Fabric) MemPort() int { return f.memPort }

// Injection returns the topology's zero-load injection latency.
func (f *Fabric) Injection() uint64 { return uint64(f.topo.InjectionLatency()) }

// PerHop returns the topology's zero-load per-hop latency.
func (f *Fabric) PerHop() uint64 { return uint64(f.topo.PerHopLatency()) }

// NextHop delegates to the topology's deterministic routing.
func (f *Fabric) NextHop(cur, dst int) (next, port int) { return f.topo.NextHop(cur, dst) }

// Stats aggregates the fabric's counters over a run.
type Stats struct {
	// Traversals counts packets scheduled through router output ports, and
	// BusyCycles the output-port occupancy they charged (backpressure
	// included).
	Traversals uint64
	BusyCycles uint64
	// PortConflicts counts packets that found their output port's link busy;
	// QueueStalls counts the subset of them that also found the port's
	// bounded queue full on arrival (each charges the port backpressure
	// occupancy for the time the packet blocked the upstream link).
	PortConflicts uint64
	QueueStalls   uint64
	// QueueDelay is the total cycles packets spent waiting for ports, and
	// MaxRouterDelay the largest per-router share of it (hotspot indicator).
	QueueDelay     uint64
	MaxRouterDelay uint64
}

// TotalStats sums the per-router counters.
func (f *Fabric) TotalStats() Stats {
	var s Stats
	for _, r := range f.routers {
		s.Traversals += r.Traversals
		s.BusyCycles += r.BusyCycles
		s.PortConflicts += r.PortConflicts
		s.QueueStalls += r.QueueStalls
		s.QueueDelay += r.QueueDelay
		s.MaxRouterDelay = max(s.MaxRouterDelay, r.QueueDelay)
	}
	return s
}
