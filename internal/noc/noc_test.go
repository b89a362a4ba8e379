package noc

import (
	"testing"

	"zsim/internal/network"
	"zsim/internal/stats"
)

func testFabric(queueDepth int) *Fabric {
	topo := network.NewMesh(2, 2, 1, 2, 1) // perHop = 3
	return NewFabric(topo, Config{
		PacketFlits:   5,
		CyclesPerFlit: 1,
		QueueDepth:    queueDepth,
		MemHopLatency: 1,
	}, stats.NewRegistry("noc"))
}

// TestZeroLoadPassThrough: an uncontended traversal finishes exactly at
// dispatch + the zero-load per-hop latency — the property that makes
// enabling the subsystem a no-op until ports back up.
func TestZeroLoadPassThrough(t *testing.T) {
	f := testFabric(8)
	r := f.Router(0)
	if got := r.Schedule(network.MeshPortEast, 100); got != 103 {
		t.Fatalf("zero-load hop should finish at 103 (dispatch+perHop), got %d", got)
	}
	// A different port is an independent resource.
	if got := r.Schedule(network.MeshPortSouth, 100); got != 103 {
		t.Fatalf("other port should be idle, got %d", got)
	}
	// The memory-egress port uses the memory-link latency.
	if got := r.Schedule(f.MemPort(), 200); got != 201 {
		t.Fatalf("mem-egress hop should finish at 201 (dispatch+memHop), got %d", got)
	}
	if r.PortConflicts != 0 || r.QueueDelay != 0 {
		t.Fatalf("zero-load traversals must not record contention")
	}
}

// TestPortOccupancy: a packet's flit train occupies the port for
// packetFlits cycles; a second packet arriving inside that window is pushed
// back and the delay is accounted.
func TestPortOccupancy(t *testing.T) {
	f := testFabric(8)
	r := f.Router(1)
	if got := r.Schedule(network.MeshPortWest, 100); got != 103 {
		t.Fatalf("first packet: got %d", got)
	}
	// Port is busy until 105 (start 100 + 5 flit cycles).
	if got := r.Schedule(network.MeshPortWest, 102); got != 108 {
		t.Fatalf("second packet should start at 105 and finish at 108, got %d", got)
	}
	if r.PortConflicts != 1 {
		t.Fatalf("one port conflict expected, got %d", r.PortConflicts)
	}
	if r.QueueDelay != 3 {
		t.Fatalf("queue delay should be 3 cycles (105-102), got %d", r.QueueDelay)
	}
}

// TestBoundedQueueStall: with a queue depth of 2, a third packet arriving
// while two flit trains are still in flight blocks the upstream link until
// the oldest train drains; the blocking time is charged to the port as
// backpressure occupancy, so the port loses bandwidth and the *following*
// packet starts later than pure serialization would allow.
func TestBoundedQueueStall(t *testing.T) {
	f := testFabric(2)
	r := f.Router(2)
	r.Schedule(network.MeshPortEast, 100) // starts 100, train drains at 105
	r.Schedule(network.MeshPortEast, 100) // queued; starts 105, drains at 110
	if r.QueueStalls != 0 {
		t.Fatalf("a non-full queue must not stall, got %d stalls", r.QueueStalls)
	}
	got := r.Schedule(network.MeshPortEast, 101) // queue full until 105: blocks 4 cycles
	if got != 113 {
		t.Fatalf("third packet should serialize to start 110 and finish at 113; got %d", got)
	}
	if r.QueueStalls != 1 {
		t.Fatalf("full-queue arrival should count one stall, got %d", r.QueueStalls)
	}
	if r.QueueDelay == 0 {
		t.Fatalf("stalled packets must account queue delay")
	}
	// Backpressure: the port is now occupied until 110+5+4 = 119 (flit
	// train plus the 4 cycles the stalled packet blocked the upstream
	// link), not 115 — the next packet pays for the full queue.
	if got := r.Schedule(network.MeshPortEast, 112); got != 122 {
		t.Fatalf("post-stall packet should start at 119 (backpressured port) and finish at 122; got %d", got)
	}
}

// TestUnboundedQueueNoBackpressure: queue depth 0 disables admission
// bookkeeping entirely — packets only serialize.
func TestUnboundedQueueNoBackpressure(t *testing.T) {
	f := testFabric(0)
	r := f.Router(2)
	r.Schedule(network.MeshPortEast, 100)
	r.Schedule(network.MeshPortEast, 100)
	r.Schedule(network.MeshPortEast, 101)
	if got := r.Schedule(network.MeshPortEast, 112); got != 118 {
		t.Fatalf("unbounded queue should purely serialize (start 115, finish 118); got %d", got)
	}
	if r.QueueStalls != 0 {
		t.Fatalf("unbounded queue must never stall")
	}
}

// TestReset clears port clocks, queues and statistics.
func TestReset(t *testing.T) {
	f := testFabric(1)
	r := f.Router(3)
	r.Schedule(network.MeshPortEast, 100) // in flight until 105
	r.Reset()
	if got := r.Schedule(network.MeshPortEast, 101); got != 104 {
		t.Fatalf("after Reset the port should be idle, got %d", got)
	}
	if r.Traversals != 1 {
		t.Fatalf("Reset must zero statistics, got %d traversals", r.Traversals)
	}
}

// TestFabricShape checks construction: one router per node, each with the
// topology's ports plus a memory-egress port.
func TestFabricShape(t *testing.T) {
	f := testFabric(8)
	if len(f.routers) != 4 {
		t.Fatalf("2x2 mesh should have 4 routers, got %d", len(f.routers))
	}
	if f.MemPort() != 4 {
		t.Fatalf("mesh mem port should be index 4, got %d", f.MemPort())
	}
	if f.Router(-1) == nil || f.Router(7) == nil {
		t.Fatalf("Router must normalize out-of-range nodes")
	}
	s := f.TotalStats()
	if s.Traversals != 0 {
		t.Fatalf("fresh fabric should have zero traversals")
	}
}

// TestScheduleDeterminism: the same dispatch sequence produces the same
// finish cycles (routers are pure functions of their event stream).
func TestScheduleDeterminism(t *testing.T) {
	run := func() []uint64 {
		f := testFabric(4)
		r := f.Router(0)
		var out []uint64
		for i := 0; i < 50; i++ {
			out = append(out, r.Schedule(i%5, uint64(100+i*2)))
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("schedule diverged at %d: %d vs %d", i, a[i], b[i])
		}
	}
}
