// Package network provides the network-on-chip models used by the bound
// phase: a ring (the validated 6-core Westmere uncore) and a 2D mesh (the
// tiled thousand-core chip of Table 3). The paper argues that for
// well-provisioned NoCs, zero-load latencies capture most of the performance
// impact; the bound phase therefore only uses hop counts, per-hop latency and
// injection latency (Model). For under-provisioned NoCs, the Topology
// interface additionally enumerates the routes messages take — node by node,
// output port by output port — which is what package noc uses to turn each
// traversal into per-router weave-phase contention events.
package network

// Model returns the zero-load latency, in cycles, for a message from a source
// core (or tile) to a destination node (an L3 bank, memory controller or
// another tile).
type Model interface {
	// Latency returns the one-way zero-load latency in cycles from src to dst
	// node indices.
	Latency(src, dst int) uint32
	// Name identifies the topology.
	Name() string
}

// Link is one directed router-to-router link of a route: the link from node
// From's output port Port to node To.
type Link struct {
	From, To int
	// Port is the output-port index at From that drives the link
	// (0 <= Port < NumPorts of the topology).
	Port int
}

// Topology extends Model with the structural view the weave-phase NoC
// contention subsystem needs: the node count, the number of network output
// ports per router, deterministic next-hop routing, and the zero-load latency
// decomposition (injection + hops x per-hop) that Latency is built from, so a
// contention model layered on the route stays zero-load-consistent with the
// bound phase.
type Topology interface {
	Model
	// Nodes returns the number of router nodes.
	Nodes() int
	// NextHop returns the next node on the deterministic route from cur to
	// dst, and the output port at cur that carries the link. cur and dst are
	// normalized like Latency's arguments; cur must differ from dst after
	// normalization.
	NextHop(cur, dst int) (next, port int)
	// NumPorts returns the number of network output ports per router (2 for a
	// ring, 4 for a mesh). Port indices returned by NextHop are below this.
	NumPorts() int
	// InjectionLatency returns the zero-load cycles to inject a message into
	// the network at its source node.
	InjectionLatency() uint32
	// PerHopLatency returns the zero-load cycles per hop (link traversal plus
	// router pipeline), so that for every src, dst:
	// Latency(src, dst) == InjectionLatency() + hops(src, dst)*PerHopLatency().
	PerHopLatency() uint32
}

// RouteAppend appends the links of the deterministic route from src to dst to
// buf and returns it. It is a convenience over NextHop for tests and tools;
// the simulator's translation loop walks NextHop directly so it never
// materializes a route.
func RouteAppend(t Topology, src, dst int, buf []Link) []Link {
	n := t.Nodes()
	cur, end := normNode(src, n), normNode(dst, n)
	for cur != end {
		next, port := t.NextHop(cur, end)
		buf = append(buf, Link{From: cur, To: next, Port: port})
		cur = next
	}
	return buf
}

// normNode reduces a node index into [0, nodes), the same normalization the
// Latency methods apply.
func normNode(v, nodes int) int {
	v %= nodes
	if v < 0 {
		v += nodes
	}
	return v
}

// Ring models a unidirectional-traversal bidirectional ring: messages take
// the shorter direction. The validated Westmere configuration uses a ring
// with a 1-cycle hop latency and a 5-cycle injection latency.
type Ring struct {
	nodes     int
	hopCycles uint32
	injection uint32
}

// NewRing creates a ring with the given number of nodes, per-hop latency and
// injection latency.
func NewRing(nodes int, hopCycles, injection uint32) *Ring {
	if nodes < 1 {
		nodes = 1
	}
	return &Ring{nodes: nodes, hopCycles: hopCycles, injection: injection}
}

// Name returns "ring".
func (r *Ring) Name() string { return "ring" }

// Nodes returns the number of ring stops.
func (r *Ring) Nodes() int { return r.nodes }

// Latency returns injection + hops * hopCycles, taking the shorter direction
// around the ring.
func (r *Ring) Latency(src, dst int) uint32 {
	src %= r.nodes
	dst %= r.nodes
	if src < 0 {
		src += r.nodes
	}
	if dst < 0 {
		dst += r.nodes
	}
	d := src - dst
	if d < 0 {
		d = -d
	}
	if other := r.nodes - d; other < d {
		d = other
	}
	return r.injection + uint32(d)*r.hopCycles
}

// Ring output ports.
const (
	// RingPortCW drives the clockwise (increasing node index) link.
	RingPortCW = 0
	// RingPortCCW drives the counter-clockwise link.
	RingPortCCW = 1
)

// NextHop routes along the shorter direction around the ring (clockwise on a
// tie, so routes are deterministic and their hop count always matches
// Latency's min-distance).
func (r *Ring) NextHop(cur, dst int) (next, port int) {
	cur, dst = normNode(cur, r.nodes), normNode(dst, r.nodes)
	fwd := normNode(dst-cur, r.nodes) // clockwise distance
	if fwd != 0 && fwd <= r.nodes-fwd {
		return (cur + 1) % r.nodes, RingPortCW
	}
	return normNode(cur-1, r.nodes), RingPortCCW
}

// NumPorts returns 2 (clockwise and counter-clockwise).
func (r *Ring) NumPorts() int { return 2 }

// InjectionLatency returns the configured injection latency.
func (r *Ring) InjectionLatency() uint32 { return r.injection }

// PerHopLatency returns the per-hop link latency.
func (r *Ring) PerHopLatency() uint32 { return r.hopCycles }

// Mesh models a 2D mesh with dimension-ordered routing and multi-stage
// routers: latency = injection + hops * (hopCycles + routerStages). Table 3's
// tiled chip uses a mesh with one router per tile, 1-cycle hops and 2-stage
// routers.
type Mesh struct {
	width        int
	height       int
	hopCycles    uint32
	routerStages uint32
	injection    uint32
}

// NewMesh creates a width x height mesh.
func NewMesh(width, height int, hopCycles, routerStages, injection uint32) *Mesh {
	if width < 1 {
		width = 1
	}
	if height < 1 {
		height = 1
	}
	return &Mesh{width: width, height: height, hopCycles: hopCycles, routerStages: routerStages, injection: injection}
}

// NewMeshForTiles creates a near-square mesh with at least n nodes, the shape
// used for the tiled chips of Table 3 (4, 16 and 64 tiles give 2x2, 4x4 and
// 8x8 meshes).
func NewMeshForTiles(n int, hopCycles, routerStages, injection uint32) *Mesh {
	w := 1
	for w*w < n {
		w++
	}
	h := (n + w - 1) / w
	return NewMesh(w, h, hopCycles, routerStages, injection)
}

// Name returns "mesh".
func (m *Mesh) Name() string { return "mesh" }

// Nodes returns the number of mesh nodes.
func (m *Mesh) Nodes() int { return m.width * m.height }

// Latency returns the dimension-ordered-routing zero-load latency.
func (m *Mesh) Latency(src, dst int) uint32 {
	n := m.Nodes()
	src %= n
	dst %= n
	if src < 0 {
		src += n
	}
	if dst < 0 {
		dst += n
	}
	sx, sy := src%m.width, src/m.width
	dx, dy := dst%m.width, dst/m.width
	hops := absInt(sx-dx) + absInt(sy-dy)
	return m.injection + uint32(hops)*(m.hopCycles+m.routerStages)
}

func absInt(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// Mesh output ports (dimension-ordered routing uses X ports before Y ports).
const (
	MeshPortEast  = 0 // +x
	MeshPortWest  = 1 // -x
	MeshPortSouth = 2 // +y
	MeshPortNorth = 3 // -y
)

// NextHop implements dimension-ordered (X then Y) routing, the same routing
// discipline Latency's hop count assumes.
func (m *Mesh) NextHop(cur, dst int) (next, port int) {
	n := m.Nodes()
	cur, dst = normNode(cur, n), normNode(dst, n)
	cx, cy := cur%m.width, cur/m.width
	dx, dy := dst%m.width, dst/m.width
	switch {
	case cx < dx:
		return cur + 1, MeshPortEast
	case cx > dx:
		return cur - 1, MeshPortWest
	case cy < dy:
		return cur + m.width, MeshPortSouth
	default:
		return cur - m.width, MeshPortNorth
	}
}

// NumPorts returns 4 (the mesh directions).
func (m *Mesh) NumPorts() int { return 4 }

// InjectionLatency returns the configured injection latency.
func (m *Mesh) InjectionLatency() uint32 { return m.injection }

// PerHopLatency returns the per-hop latency: link traversal plus the router
// pipeline stages.
func (m *Mesh) PerHopLatency() uint32 { return m.hopCycles + m.routerStages }

// Flat is a topology-free model with a constant latency between any pair of
// nodes, used by small configurations and unit tests.
type Flat struct {
	// Cycles is the constant one-way latency.
	Cycles uint32
}

// Name returns "flat".
func (f *Flat) Name() string { return "flat" }

// Latency returns the constant latency.
func (f *Flat) Latency(src, dst int) uint32 { return f.Cycles }
