package serve

import (
	"time"

	"zsim"
)

// simPool is the server's shape-keyed warm-simulator pool. Simulators whose
// configurations hash to the same shape key (zsim.Config.ShapeKey: identical
// construction shape, run-variable knobs free to differ) are interchangeable
// after a Reset, so a worker picking up a job first tries to check out a warm
// simulator of the job's shape and only constructs on a miss. Clean jobs
// return their simulator; panicked jobs discard it (a panicked simulator
// cannot be rewound).
//
// The pool bounds both the total number of retained simulators (size) and
// the number per shape (perShape), so a burst of one-off shapes cannot pin
// unbounded memory. Server.mu guards it; the simulators themselves are only
// ever used by the single worker that checked them out, and are built and
// rewound outside the lock. A simulator holds no goroutine between runs, so
// one the pool does not keep (over capacity, expired, left at shutdown) is
// simply dropped.
//
// Entries remember when they were parked; the server's janitor calls
// expireIdle so shapes that stopped arriving release their arena memory
// instead of pinning it for the daemon's lifetime. Prewarming (parking
// freshly built simulators before any job arrives) uses the same slots but
// its own counter, so /healthz can account for every entry:
// occupancy == returns + prewarmed − hits − expiries.
type simPool struct {
	size     int // total retained simulators across shapes
	perShape int // retained simulators per shape key
	shapes   map[uint64][]poolEntry
	total    int
	closed   bool

	hits      uint64
	misses    uint64
	returns   uint64
	discards  uint64
	prewarmed uint64
	expiries  uint64
}

// poolEntry is one parked simulator and the time it was parked.
type poolEntry struct {
	sim  *zsim.Simulator
	last time.Time
}

// poolStats is the wire form of the pool's occupancy and effectiveness
// counters, reported by /healthz.
type poolStats struct {
	Size      int    `json:"size"`
	PerShape  int    `json:"perShape"`
	Occupancy int    `json:"occupancy"`
	Shapes    int    `json:"shapes"`
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Returns   uint64 `json:"returns"`
	Discards  uint64 `json:"discards"`
	Prewarmed uint64 `json:"prewarmed"`
	Expiries  uint64 `json:"expiries"`
}

// newSimPool creates a pool retaining up to size simulators, at most perShape
// per shape key. size <= 0 disables pooling (newSimPool returns nil, and the
// nil receiver methods behave as a permanently empty pool).
func newSimPool(size, perShape int) *simPool {
	if size <= 0 {
		return nil
	}
	if perShape <= 0 {
		perShape = 2
	}
	if perShape > size {
		perShape = size
	}
	return &simPool{
		size:     size,
		perShape: perShape,
		shapes:   make(map[uint64][]poolEntry),
	}
}

// get checks out a warm simulator for the given shape key, or nil on a miss.
// The caller owns the returned simulator until it puts it back.
func (p *simPool) get(key uint64) *zsim.Simulator {
	if p == nil {
		return nil
	}
	entries := p.shapes[key]
	if len(entries) == 0 {
		p.misses++
		return nil
	}
	sim := entries[len(entries)-1].sim
	entries[len(entries)-1] = poolEntry{}
	if len(entries) == 1 {
		delete(p.shapes, key)
	} else {
		p.shapes[key] = entries[:len(entries)-1]
	}
	p.total--
	p.hits++
	return sim
}

// put parks a simulator under its shape key, a job's return or (warmup) a
// prewarmed one. It reports whether the pool retained it; on false (pool
// full, per-shape cap reached, or pool closed) the simulator is dropped.
func (p *simPool) put(key uint64, sim *zsim.Simulator, warmup bool) bool {
	if p == nil || sim == nil {
		return false
	}
	if p.closed || p.total >= p.size || len(p.shapes[key]) >= p.perShape {
		p.discards++
		return false
	}
	p.shapes[key] = append(p.shapes[key], poolEntry{sim: sim, last: time.Now()})
	p.total++
	if warmup {
		p.prewarmed++
	} else {
		p.returns++
	}
	return true
}

// expireIdle drops every entry parked before the cutoff.
func (p *simPool) expireIdle(cutoff time.Time) {
	if p == nil {
		return
	}
	expired := 0
	for key, entries := range p.shapes {
		kept := entries[:0]
		for _, e := range entries {
			if e.last.Before(cutoff) {
				expired++
			} else {
				kept = append(kept, e)
			}
		}
		for i := len(kept); i < len(entries); i++ {
			entries[i] = poolEntry{}
		}
		if len(kept) == 0 {
			delete(p.shapes, key)
		} else {
			p.shapes[key] = kept
		}
	}
	p.total -= expired
	p.expiries += uint64(expired)
}

// stats reports the pool counters. Safe on a nil (disabled) pool.
func (p *simPool) stats() poolStats {
	if p == nil {
		return poolStats{}
	}
	return poolStats{
		Size:      p.size,
		PerShape:  p.perShape,
		Occupancy: p.total,
		Shapes:    len(p.shapes),
		Hits:      p.hits,
		Misses:    p.misses,
		Returns:   p.returns,
		Discards:  p.discards,
		Prewarmed: p.prewarmed,
		Expiries:  p.expiries,
	}
}

// arenaBytes sums the construction arena of every retained simulator
// (retained means idle: no worker touches a pooled simulator, so reading its
// arena stats under Server.mu is safe). Translated programs are left out: the
// process-wide translation cache shares them between simulators, and the
// zsimd_translation_cache_bytes gauge counts them once. Zero on a nil
// (disabled) pool.
func (p *simPool) arenaBytes() uint64 {
	if p == nil {
		return 0
	}
	var total uint64
	for _, entries := range p.shapes {
		for _, e := range entries {
			total += e.sim.ConstructionArenaBytes()
		}
	}
	return total
}

// close marks the pool closed and drops every retained simulator; later puts
// are refused, so in-flight jobs finishing after shutdown drop theirs.
func (p *simPool) close() {
	if p != nil {
		p.shapes, p.total, p.closed = nil, 0, true
	}
}
