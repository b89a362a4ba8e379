package network

import (
	"testing"
	"testing/quick"
)

func TestRingLatency(t *testing.T) {
	r := NewRing(6, 1, 5)
	if r.Name() != "ring" || r.Nodes() != 6 {
		t.Fatalf("ring metadata wrong")
	}
	if got := r.Latency(0, 0); got != 5 {
		t.Fatalf("self latency should be injection only, got %d", got)
	}
	if got := r.Latency(0, 1); got != 6 {
		t.Fatalf("adjacent latency: %d", got)
	}
	// 0 -> 5 is one hop the short way around.
	if got := r.Latency(0, 5); got != 6 {
		t.Fatalf("wraparound should take the short path, got %d", got)
	}
	if got := r.Latency(0, 3); got != 8 {
		t.Fatalf("diameter latency: %d", got)
	}
	// Symmetry.
	if r.Latency(2, 5) != r.Latency(5, 2) {
		t.Fatalf("ring latency should be symmetric")
	}
	// Out-of-range nodes are wrapped, including negatives.
	if r.Latency(6, 12) != 5 {
		t.Fatalf("wrapped self latency wrong")
	}
	if r.Latency(-1, 5) != 5 {
		t.Fatalf("negative indices should wrap")
	}
	// Degenerate ring.
	one := NewRing(0, 1, 2)
	if one.Nodes() != 1 || one.Latency(0, 0) != 2 {
		t.Fatalf("degenerate ring should clamp to one node")
	}
}

func TestMeshLatency(t *testing.T) {
	m := NewMesh(4, 4, 1, 2, 3)
	if m.Name() != "mesh" || m.Nodes() != 16 || m.width != 4 {
		t.Fatalf("mesh metadata wrong")
	}
	if got := m.Latency(0, 0); got != 3 {
		t.Fatalf("self latency: %d", got)
	}
	// 0 -> 15 is 3+3 = 6 hops of cost 3 each plus injection 3 = 21.
	if got := m.Latency(0, 15); got != 21 {
		t.Fatalf("corner-to-corner latency: %d", got)
	}
	if m.Latency(5, 10) != m.Latency(10, 5) {
		t.Fatalf("mesh latency should be symmetric")
	}
	deg := NewMesh(0, 0, 1, 1, 1)
	if deg.Nodes() != 1 {
		t.Fatalf("degenerate mesh should clamp")
	}
}

func TestMeshForTiles(t *testing.T) {
	cases := []struct{ tiles, nodes int }{{4, 4}, {16, 16}, {64, 64}, {5, 6}}
	for _, c := range cases {
		m := NewMeshForTiles(c.tiles, 1, 2, 1)
		if m.Nodes() < c.tiles {
			t.Fatalf("mesh for %d tiles has only %d nodes", c.tiles, m.Nodes())
		}
		if m.Nodes() != c.nodes {
			t.Fatalf("mesh for %d tiles should have %d nodes, got %d", c.tiles, c.nodes, m.Nodes())
		}
	}
}

func TestFlat(t *testing.T) {
	f := &Flat{Cycles: 7}
	if f.Latency(0, 99) != 7 || f.Name() != "flat" {
		t.Fatalf("flat model broken")
	}
}

// Property: latencies are symmetric, at least the injection latency, and
// bounded by injection + diameter cost for both topologies.
func TestTopologyProperties(t *testing.T) {
	f := func(srcRaw, dstRaw uint8) bool {
		ring := NewRing(16, 2, 4)
		mesh := NewMesh(8, 8, 1, 2, 3)
		src, dst := int(srcRaw), int(dstRaw)
		rl := ring.Latency(src, dst)
		ml := mesh.Latency(src, dst)
		if rl != ring.Latency(dst, src) || ml != mesh.Latency(dst, src) {
			return false
		}
		if rl < 4 || ml < 3 {
			return false
		}
		ringMax := uint32(4 + 8*2)
		meshMax := uint32(3 + 14*3)
		return rl <= ringMax && ml <= meshMax
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
