package cache

// Routers connect hierarchy levels that are physically distributed: a banked
// shared cache (the L3 of the validated Westmere configuration and of the
// tiled thousand-core chip) and the set of memory controllers. Routers select
// the destination bank or controller by hashing the line address, and add the
// network's zero-load latency for the hop, which is how the bound phase
// accounts for the NoC (the paper argues zero-load latencies capture most of
// the impact for well-provisioned networks). When weave-phase NoC contention
// is enabled, both routers additionally record the traversal's topology nodes
// as network hops (HopNet / HopNetMem) on traced requests, which package
// boundweave expands into per-router contention events (package noc).

// Banked routes requests to one of several banks by hashing the line
// address. It implements Level and is used as the parent of the private cache
// levels.
type Banked struct {
	banks []*Cache
	// latency returns the zero-load network latency (cycles) between a
	// requesting core and a destination bank, added each way to every access
	// (it depends on placement on a mesh).
	latency func(coreID, bank int) uint32
	// netNodeFn, if non-nil, resolves a core->bank traversal to its (src, dst)
	// topology nodes; Access then records a HopNet hop on traced requests so
	// the weave phase can retime the route's router traversals (NoC
	// contention). Same-node traversals record nothing.
	netNodeFn func(coreID, bank int) (src, dst int)
}

// NewBanked creates a banked-cache router over the given banks, with latency
// giving the zero-load core-to-bank network latency.
func NewBanked(banks []*Cache, latency func(coreID, bank int) uint32) *Banked {
	return &Banked{banks: banks, latency: latency}
}

// SetNetNodeFunc installs the core->bank topology-node resolver that enables
// NoC hop recording on traced requests.
func (b *Banked) SetNetNodeFunc(f func(coreID, bank int) (src, dst int)) { b.netNodeFn = f }

// BankOf returns the bank index that owns the line.
func (b *Banked) BankOf(lineAddr uint64) int {
	h := lineAddr * 0xff51afd7ed558ccd
	h ^= h >> 33
	return int(h % uint64(len(b.banks)))
}

// Access routes the request to the owning bank, adding network latency. The
// request is forwarded in place (mutate Cycle, restore afterwards) so routing
// does not allocate.
func (b *Banked) Access(req *Request) uint64 {
	bank := b.BankOf(req.LineAddr)
	lat := b.latency(req.CoreID, bank)
	if b.netNodeFn != nil && req.RecordHops {
		if src, dst := b.netNodeFn(req.CoreID, bank); src != dst {
			req.addNetHop(HopNet, src, dst, req.Cycle, lat)
		}
	}
	savedCycle := req.Cycle
	req.Cycle += uint64(lat)
	avail := b.banks[bank].Access(req)
	req.Cycle = savedCycle
	// The response also crosses the network.
	return avail + uint64(lat)
}

// MemRouter routes requests that missed in the last-level cache to one of
// several memory controllers, selected by hashing the line address (channel
// interleaving).
type MemRouter struct {
	ctrls []Level
	// netLatency models the path from the LLC bank to the memory controller.
	netLatency uint32
	// netNodeFn, if non-nil, resolves a request's LLC-to-controller traversal
	// to (src, dst) topology nodes — src is the node of the LLC bank owning
	// the line, dst the controller's home node. Access then records a
	// HopNetMem hop (the memory-egress link at src) on traced requests.
	netNodeFn func(lineAddr uint64, ctrl int) (src, dst int)
}

// NewMemRouter creates a router over the given memory controllers.
func NewMemRouter(ctrls []Level, netLatency uint32) *MemRouter {
	return &MemRouter{ctrls: ctrls, netLatency: netLatency}
}

// SetNetNodeFunc installs the line->controller topology-node resolver that
// enables NoC hop recording on traced requests.
func (m *MemRouter) SetNetNodeFunc(f func(lineAddr uint64, ctrl int) (src, dst int)) {
	m.netNodeFn = f
}

// CtrlOf returns the controller index that owns the line.
func (m *MemRouter) CtrlOf(lineAddr uint64) int {
	h := lineAddr*0xc2b2ae3d27d4eb4f + 0x165667b19e3779f9
	h ^= h >> 29
	return int(h % uint64(len(m.ctrls)))
}

// Access routes the request to the owning memory controller, forwarding the
// request in place.
func (m *MemRouter) Access(req *Request) uint64 {
	idx := m.CtrlOf(req.LineAddr)
	if m.netNodeFn != nil && req.RecordHops {
		src, dst := m.netNodeFn(req.LineAddr, idx)
		req.addNetHop(HopNetMem, src, dst, req.Cycle, m.netLatency)
	}
	savedCycle := req.Cycle
	req.Cycle += uint64(m.netLatency)
	avail := m.ctrls[idx].Access(req)
	req.Cycle = savedCycle
	return avail + uint64(m.netLatency)
}
