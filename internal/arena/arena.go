// Package arena provides the slab allocator that backs simulator
// construction. Building a large simulated chip (1,024 cores, thousands of
// caches, predictors and statistics registry nodes) naturally decomposes
// into millions of small, identically-typed, never-freed allocations; the
// arena turns each type's stream of small allocations into a handful of
// large chunk allocations. One Arena is created per simulated system (it
// hangs off the root stats.Registry) and feeds registry nodes, core objects,
// cache slot tables and stripe state (each stripe carries its cache's
// statistics); the zsim facade gives each workload's decoded code an arena
// of its own. An arena also carries the few objects one system's components
// share (Attached), such as the slab the caches take their lines from.
//
// Objects taken from an arena are never returned individually: an arena
// lives exactly as long as the object graph built from it. Memory handed
// out is always zeroed — chunks come fresh from the Go allocator — so
// zero-value-initialized structures (Invalid cache lines, statistics
// counts) need no separate init pass.
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
// exactly-sized chunk, and Reserve makes a type's next chunk exactly the
// size its caller is about to take.
const (
	minChunkBytes = 2 << 10
	maxChunkBytes = 256 << 10
)

// Arena is a type-segregated slab allocator that only grows.
// It is safe for concurrent use, although construction is mostly
// single-threaded. State built on first use — a core's predictor table and
// OOO window, the chunks of the caches' line slab — does not take from the
// arena's pools: it comes from the heap on the parallel bound phase's hot
// path, where the arena's mutex would serialize the workers.
type Arena struct {
	mu       sync.Mutex
	pools    map[reflect.Type]any
	attached map[reflect.Type]any

	chunks int
	bytes  uint64
}

// New creates an empty arena.
func New() *Arena {
	return &Arena{pools: make(map[reflect.Type]any)}
}

// Stats reports the number of chunk allocations performed and the total bytes
// reserved so far (diagnostics for construction benchmarks and job results).
// Both are monotone.
func (a *Arena) Stats() (chunks int, bytes uint64) {
	if a == nil {
		return 0, 0
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.chunks, a.bytes
}

// pool is the per-type state: the chunk currently being carved, how much of
// it is carved, and the size the next new chunk will have (geometric
// growth). Earlier chunks stay alive through the slices carved from them.
type pool[T any] struct {
	buf       []T
	used      int
	nextBytes int
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
	p := poolOf[T](a)
	if len(p.buf)-p.used < c {
		var zero T
		elems := c
		if p.nextBytes < minChunkBytes {
			p.nextBytes = minChunkBytes
		}
		if size := int(unsafe.Sizeof(zero)); size > 0 {
			elems = max(elems, p.nextBytes/size)
		}
		if p.nextBytes < maxChunkBytes {
			p.nextBytes *= 2
		}
		newChunk(a, p, elems)
	}
	s := p.buf[p.used : p.used+c : p.used+c]
	p.used += c
	return s[:n]
}

// Reserve makes T's next n elements come from one chunk with no room to
// spare: when T's current chunk has fewer than n elements left, Reserve
// replaces it with a fresh chunk of exactly n (the old chunk's tail is
// abandoned, as a take that does not fit abandons it). A caller that knows
// the total it is about to take — every cache's slot table of a chip, the
// flat arrays of a translated program — reserves it first, so that total
// costs one chunk and no slack instead of a run of doubling chunks. A nil
// arena or n < 1 does nothing.
func Reserve[T any](a *Arena, n int) {
	if a == nil || n < 1 {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if p := poolOf[T](a); len(p.buf)-p.used < n {
		newChunk(a, p, n)
	}
}

// poolOf returns the arena's pool for T, making it on first use. The caller
// holds a.mu.
func poolOf[T any](a *Arena) *pool[T] {
	key := reflect.TypeOf((*T)(nil))
	p, ok := a.pools[key].(*pool[T])
	if !ok {
		p = &pool[T]{}
		a.pools[key] = p
	}
	return p
}

// newChunk makes a fresh chunk of elems Ts the pool's current one. The
// caller holds a.mu.
func newChunk[T any](a *Arena, p *pool[T], elems int) {
	var zero T
	p.buf, p.used = make([]T, elems), 0
	a.chunks++
	a.bytes += uint64(elems) * uint64(unsafe.Sizeof(zero))
}

// Attached returns the arena's one *T, made by mk the first time it is asked
// for; later calls return the same value. A nil arena has nothing to hang it
// on, so every call returns a new mk(). mk runs under the arena's lock and
// must not take from the arena.
func Attached[T any](a *Arena, mk func() *T) *T {
	if a == nil {
		return mk()
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	key := reflect.TypeOf((*T)(nil))
	if v, ok := a.attached[key]; ok {
		return v.(*T)
	}
	if a.attached == nil {
		a.attached = make(map[reflect.Type]any)
	}
	v := mk()
	a.attached[key] = v
	return v
}

// One returns a pointer to a zeroed T carved from the arena (or heap-allocated
// for a nil arena).
func One[T any](a *Arena) *T {
	if a == nil {
		return new(T)
	}
	return &Take[T](a, 1)[0]
}
