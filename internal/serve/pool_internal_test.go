package serve

// Internal tests for the warm pool's prewarm and idle-expiry paths. The
// checkout/return cycle under real jobs is covered by the external server
// tests; these pin the counter invariant the /healthz surface promises:
// occupancy == returns + prewarmed − hits − expiries.

import (
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
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
	defer p.close()
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

	// A third prewarm into a full pool is discarded.
	if p.put(key, poolSim(t), true) {
		t.Fatalf("prewarm accepted past capacity")
	}
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
	defer p.close()
	key := config.SmallTest().ShapeKey()

	p.put(key, poolSim(t), true)
	p.put(key, poolSim(t), true)
	if p.arenaBytes() == 0 {
		t.Fatalf("parked simulators report zero arena bytes")
	}

	// A cutoff in the past expires nothing.
	p.expireIdle(time.Now().Add(-time.Hour))
	if n := p.stats().Expiries; n != 0 {
		t.Fatalf("past cutoff expired %d entries", n)
	}
	checkPoolInvariant(t, p)

	// A future cutoff expires everything and releases the arena accounting.
	p.expireIdle(time.Now().Add(time.Hour))
	st := p.stats()
	if st.Occupancy != 0 || st.Shapes != 0 || st.Expiries != 2 {
		t.Fatalf("after expiry: %+v", st)
	}
	if p.arenaBytes() != 0 {
		t.Fatalf("expired pool still reports arena bytes")
	}
	checkPoolInvariant(t, p)

	// The shape misses afterwards — expiry really removed the entries.
	if p.get(key) != nil {
		t.Fatalf("get hit an expired shape")
	}
}

func TestPoolExpirySparesRecent(t *testing.T) {
	p := newSimPool(4, 4)
	defer p.close()
	key := config.SmallTest().ShapeKey()

	p.put(key, poolSim(t), true)
	cutoff := time.Now() // old entry is before this, new one after
	time.Sleep(2 * time.Millisecond)
	p.put(key, poolSim(t), true)

	p.expireIdle(cutoff)
	st := p.stats()
	if st.Occupancy != 1 || st.Shapes != 1 || st.Expiries != 1 {
		t.Fatalf("after partial expiry: %+v", st)
	}
	checkPoolInvariant(t, p)
	if p.get(key) == nil {
		t.Fatalf("surviving entry not servable")
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
	p.expireIdle(time.Now())
	p.close()
	if p.arenaBytes() != 0 {
		t.Fatalf("nil pool reported occupancy")
	}
	if st := p.stats(); st.Size > 0 {
		t.Fatalf("nil pool reports enabled: size %d", st.Size)
	}
}

// TestPoolArenaGaugeCountsProgramsOnce parks two simulators that ran the same
// program. The pool gauge must hold their two construction arenas and nothing
// more; the program, which the process-wide translation cache shares between
// them, must show up once, in the cache gauge.
func TestPoolArenaGaugeCountsProgramsOnce(t *testing.T) {
	s := New(Options{Workers: 1, PoolSize: 2, PoolPerShape: 2})
	defer s.Shutdown(time.Second)
	key := config.SmallTest().ShapeKey()
	params, _ := zsim.LookupWorkload("blackscholes")
	params.BlocksPerThread = 23 // a program key no other test translates

	var construction, program [2]uint64
	var cacheAfter [2]uint64
	for i := range 2 {
		sim := poolSim(t)
		_, construction[i] = sim.ArenaStats() // no workload yet: the construction arena alone
		sim.AddWorkload("blackscholes", params, 2)
		if _, err := sim.Run(); err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		_, ran := sim.ArenaStats()
		program[i] = ran - construction[i]
		cacheAfter[i] = zsim.TranslationCacheBytes()
		s.mu.Lock()
		pooled := s.pool.put(key, sim, false)
		s.mu.Unlock()
		if !pooled {
			t.Fatalf("pool refused simulator %d", i)
		}
	}
	if program[0] == 0 || program[0] != program[1] {
		t.Fatalf("program bytes %d and %d: want the same nonzero program in both", program[0], program[1])
	}
	if cacheAfter[0] < program[0] || cacheAfter[1] != cacheAfter[0] {
		t.Fatalf("translation cache %d then %d bytes: want the %d-byte program counted once", cacheAfter[0], cacheAfter[1], program[0])
	}

	rec := httptest.NewRecorder()
	s.handleMetrics(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	gauges := map[string]uint64{}
	for line := range strings.Lines(rec.Body.String()) {
		name, value, ok := strings.Cut(strings.TrimSpace(line), " ")
		if ok && !strings.HasPrefix(name, "#") {
			gauges[name], _ = strconv.ParseUint(value, 10, 64)
		}
	}
	if got, want := gauges["zsimd_pool_arena_bytes"], construction[0]+construction[1]; got != want {
		t.Errorf("zsimd_pool_arena_bytes = %d, want the two construction arenas %d (programs %d each)", got, want, program[0])
	}
	if got := gauges["zsimd_translation_cache_bytes"]; got != cacheAfter[1] {
		t.Errorf("zsimd_translation_cache_bytes = %d, want %d", got, cacheAfter[1])
	}
}
