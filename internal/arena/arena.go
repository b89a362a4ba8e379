// Package arena provides the slab allocator that backs simulator
// construction. Building a large simulated chip (1,024 cores, thousands of
// caches, predictors and statistics registry nodes) naturally decomposes
// into millions of small, identically-typed, never-freed allocations; the
// arena turns each type's stream of small allocations into a handful of
// large chunk allocations. One Arena is created per simulated system (it
// hangs off the root stats.Registry) and feeds registry nodes, cache set
// tables, stripe state (each stripe carries its cache's statistics),
// predictor tables and decoded workload code.
//
// Objects taken from an arena are never returned individually, but a whole
// arena can be rewound: Reset retains every allocated chunk and rewinds the
// carve offsets, so the next construction pass re-Takes the same warm memory
// with zero new chunk allocations (the basis of warm-simulator reuse).
// Memory handed out is always zeroed — chunks come fresh from the Go
// allocator, and Reset re-zeroes the carved prefix of every chunk — so
// zero-value-initialized structures (biased branch-predictor counters,
// Invalid cache lines, statistics counts) need no separate init pass,
// fresh or reused.
//
// All entry points accept a nil *Arena and fall back to plain make, so
// components remain constructible in isolation (tests, examples) without
// threading an arena through every call site.
package arena

import (
	"reflect"
	"sync"
	"unsafe"
)

// Chunk sizing: each type's pool starts with a small chunk and doubles up to
// the cap, so small systems (a 4-core test chip touches ~20 element types)
// pay kilobytes of slack per type while 1,024-core chips still amortize into
// a handful of large chunks. Takes bigger than the cap get a dedicated
// exactly-sized chunk.
const (
	minChunkBytes = 2 << 10
	maxChunkBytes = 256 << 10
)

// Arena is a type-segregated slab allocator that only grows between Resets.
// It is safe for concurrent use, although construction is mostly
// single-threaded. Lazily allocated cache ways do not take from the arena:
// they come from the heap on the parallel bound phase's hot path.
type Arena struct {
	mu    sync.Mutex
	pools map[reflect.Type]any

	chunks int
	bytes  uint64
}

// New creates an empty arena.
func New() *Arena {
	return &Arena{pools: make(map[reflect.Type]any)}
}

// Stats reports the number of chunk allocations performed and the total bytes
// reserved so far (diagnostics for construction benchmarks and job results).
// Both are monotone: Reset retains chunks, so a warm arena's stats stop
// growing once its working set is established.
func (a *Arena) Stats() (chunks int, bytes uint64) {
	if a == nil {
		return 0, 0
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.chunks, a.bytes
}

// resetter lets Arena.Reset rewind a pool without knowing its element type.
type resetter interface{ reset() }

// Reset rewinds the arena: every chunk is retained, its carved prefix is
// re-zeroed, and carving restarts from the first chunk. Slices previously
// Taken become dangling aliases of memory the arena will hand out again —
// callers must drop every reference rooted in the arena before resetting
// (the warm-pool discipline: the whole object graph built from the arena is
// torn down or rebuilt together).
func (a *Arena) Reset() {
	if a == nil {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, p := range a.pools {
		p.(resetter).reset()
	}
}

// chunk is one retained slab of a pool: its backing storage and how much of
// it has been carved.
type chunk[T any] struct {
	buf  []T
	used int
}

// pool is the per-type chunk state: the retained chunks, the index of the
// chunk currently being carved, and the size the next new chunk will have
// (geometric growth, preserved across Resets).
type pool[T any] struct {
	chunks    []chunk[T]
	cur       int
	nextBytes int
}

func (p *pool[T]) reset() {
	for i := range p.chunks {
		ch := &p.chunks[i]
		clear(ch.buf[:ch.used])
		ch.used = 0
	}
	p.cur = 0
}

// Take returns a zeroed slice of n Ts with len == cap == n, carved from the
// arena's current chunk for T (allocating a new chunk when it runs out). A
// nil arena falls back to make([]T, n).
func Take[T any](a *Arena, n int) []T {
	return TakeCap[T](a, n, n)
}

// TakeCap returns a zeroed slice of type []T with the given length and
// capacity, carved from the arena. Appending beyond cap spills to the regular
// heap (a correct, rare slow path for growable slices whose typical size is
// known). A nil arena falls back to make([]T, n, c).
func TakeCap[T any](a *Arena, n, c int) []T {
	if c < n {
		c = n
	}
	if a == nil {
		if c == 0 {
			return nil
		}
		return make([]T, n, c)
	}
	if c == 0 {
		return nil
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	key := reflect.TypeOf((*T)(nil))
	p, ok := a.pools[key].(*pool[T])
	if !ok {
		p = &pool[T]{}
		a.pools[key] = p
	}
	// Advance past retained chunks that cannot fit this request. After a
	// Reset this walks forward through warm chunks; before any Reset, cur is
	// always the last chunk, matching the original single-tail behavior.
	for p.cur < len(p.chunks) && len(p.chunks[p.cur].buf)-p.chunks[p.cur].used < c {
		p.cur++
	}
	if p.cur == len(p.chunks) {
		var zero T
		size := int(unsafe.Sizeof(zero))
		if p.nextBytes < minChunkBytes {
			p.nextBytes = minChunkBytes
		}
		elems := c
		if size > 0 {
			if per := p.nextBytes / size; per > elems {
				elems = per
			}
		}
		if p.nextBytes < maxChunkBytes {
			p.nextBytes *= 2
		}
		p.chunks = append(p.chunks, chunk[T]{buf: make([]T, elems)})
		a.chunks++
		a.bytes += uint64(elems * size)
	}
	ch := &p.chunks[p.cur]
	s := ch.buf[ch.used : ch.used+c : ch.used+c]
	ch.used += c
	return s[:n]
}

// One returns a pointer to a zeroed T carved from the arena (or heap-allocated
// for a nil arena).
func One[T any](a *Arena) *T {
	if a == nil {
		return new(T)
	}
	return &Take[T](a, 1)[0]
}
