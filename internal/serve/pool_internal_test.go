package serve

// Internal tests for the warm pool's prewarm and idle-expiry paths. The
// checkout/return cycle under real jobs is covered by the external server
// tests; these pin the counter invariant the /healthz surface promises:
// occupancy == returns + prewarmed − hits − expiries.

import (
	"testing"
	"time"

	"zsim"
	"zsim/internal/config"
)

func poolSim(t *testing.T) *zsim.Simulator {
	t.Helper()
	cfg := config.SmallTest()
	sim, err := zsim.New(cfg)
	if err != nil {
		t.Fatalf("zsim.New: %v", err)
	}
	sim.SetReusable(true)
	return sim
}

func checkPoolInvariant(t *testing.T, p *simPool) {
	t.Helper()
	st := p.stats()
	if got := st.Returns + st.Prewarmed - st.Hits - st.Expiries; uint64(st.Occupancy) != got {
		t.Fatalf("invariant broken: occupancy %d != returns %d + prewarmed %d - hits %d - expiries %d",
			st.Occupancy, st.Returns, st.Prewarmed, st.Hits, st.Expiries)
	}
}

func TestPoolPrewarmCounters(t *testing.T) {
	p := newSimPool(2, 2)
	defer func() { closeAll(p.close()) }()
	key := config.SmallTest().ShapeKey()

	a, b := poolSim(t), poolSim(t)
	if !p.put(key, a, true) || !p.put(key, b, true) {
		t.Fatalf("prewarm refused below capacity")
	}
	st := p.stats()
	if st.Prewarmed != 2 || st.Returns != 0 || st.Occupancy != 2 {
		t.Fatalf("after prewarm: %+v", st)
	}
	checkPoolInvariant(t, p)

	// A third prewarm into a full pool is discarded, caller closes.
	c := poolSim(t)
	if p.put(key, c, true) {
		t.Fatalf("prewarm accepted past capacity")
	}
	c.Close()
	if st := p.stats(); st.Discards != 1 {
		t.Fatalf("discards = %d, want 1", st.Discards)
	}

	// Prewarmed entries serve hits like returned ones.
	if sim := p.get(key); sim == nil {
		t.Fatalf("get missed a prewarmed shape")
	} else {
		if !p.put(key, sim, false) {
			t.Fatalf("put refused with free capacity")
		}
	}
	st = p.stats()
	if st.Hits != 1 || st.Returns != 1 || st.Prewarmed != 2 || st.Occupancy != 2 {
		t.Fatalf("after hit+return: %+v", st)
	}
	checkPoolInvariant(t, p)
}

func TestPoolExpireIdle(t *testing.T) {
	p := newSimPool(4, 4)
	defer func() { closeAll(p.close()) }()
	key := config.SmallTest().ShapeKey()

	p.put(key, poolSim(t), true)
	p.put(key, poolSim(t), true)
	if p.arenaBytes() == 0 {
		t.Fatalf("parked simulators report zero arena bytes")
	}

	// A cutoff in the past expires nothing.
	if n := len(p.expireIdle(time.Now().Add(-time.Hour))); n != 0 {
		t.Fatalf("past cutoff expired %d entries", n)
	}
	checkPoolInvariant(t, p)

	// A future cutoff expires everything and releases the arena accounting.
	victims := p.expireIdle(time.Now().Add(time.Hour))
	closeAll(victims)
	if n := len(victims); n != 2 {
		t.Fatalf("expired %d entries, want 2", n)
	}
	st := p.stats()
	if st.Occupancy != 0 || st.Shapes != 0 || st.Expiries != 2 {
		t.Fatalf("after expiry: %+v", st)
	}
	if p.arenaBytes() != 0 {
		t.Fatalf("expired pool still reports arena bytes")
	}
	checkPoolInvariant(t, p)

	// The shape misses afterwards — expiry really removed the entries.
	if sim := p.get(key); sim != nil {
		sim.Close()
		t.Fatalf("get hit an expired shape")
	}
}

func TestPoolExpirySparesRecent(t *testing.T) {
	p := newSimPool(4, 4)
	defer func() { closeAll(p.close()) }()
	key := config.SmallTest().ShapeKey()

	p.put(key, poolSim(t), true)
	cutoff := time.Now() // old entry is before this, new one after
	time.Sleep(2 * time.Millisecond)
	p.put(key, poolSim(t), true)

	victims := p.expireIdle(cutoff)
	closeAll(victims)
	if n := len(victims); n != 1 {
		t.Fatalf("expired %d entries, want 1", n)
	}
	st := p.stats()
	if st.Occupancy != 1 || st.Shapes != 1 {
		t.Fatalf("after partial expiry: %+v", st)
	}
	checkPoolInvariant(t, p)
	if sim := p.get(key); sim == nil {
		t.Fatalf("surviving entry not servable")
	} else {
		sim.Close()
	}
}

func TestPoolNilSafety(t *testing.T) {
	var p *simPool // pooling disabled
	if p.get(1) != nil {
		t.Fatalf("nil pool returned a simulator")
	}
	if p.put(1, nil, false) || p.put(1, nil, true) {
		t.Fatalf("nil pool retained a simulator")
	}
	if p.expireIdle(time.Now()) != nil || p.arenaBytes() != 0 {
		t.Fatalf("nil pool reported occupancy")
	}
	if st := p.stats(); st.Enabled {
		t.Fatalf("nil pool reports enabled")
	}
	if p.close() != nil {
		t.Fatalf("nil pool returned simulators on close")
	}
}
