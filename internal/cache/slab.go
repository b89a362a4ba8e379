package cache

import (
	"math/bits"
	"slices"
	"sync"

	"zsim/internal/arena"
)

// Slab geometry. A chunk holds twice as many 8-byte words as the chip has
// lines / chunkDiv, that count clamped to [minChunkLines, maxChunkLines] and
// rounded down to a power of two, but at least twice the largest cache's
// block, so no option sizes it: a test chip gets 4 KB chunks, the 6-core
// Westmere 16 KB ones and the 1,024-core chip 64 KB ones. A set's block
// takes 12 to 20 bytes per way, so a chunk holds about as many ways as
// 16 bytes per line suggests.
const (
	chunkDiv      = 128
	minChunkLines = 256
	maxChunkLines = 4096
)

// lineSlab holds the blocks of every touched set of one chip's caches. A
// cache names a set's block by a 4-byte slot: chunk index << shift | word
// offset, where chunk 0 is never handed out, so slot 0 means untouched.
// Chunks are pointer-free heap arrays of words the GC does not scan, taken
// on first use and kept across Reset, so a pooled simulator keeps only its
// largest run's blocks.
//
// A set's block is carved from a cursor's current chunk. Each bound worker
// has its own cursor (LineCursor), so first touches on different workers
// write no common word; a cursor takes its next chunk under mu, once per
// chunk. Callers outside the bound phase carry no cursor and share one,
// under sharedMu.
type lineSlab struct {
	// chunks[i] points at chunk i's first word, nil until a cursor first
	// takes it; a chunk is 1<<shift words. The table is made once, for the
	// worst run (see reserve), by WorkerCursors or the first take, and only
	// construction grows it, so lookups read it without a lock.
	chunks []*uint64
	shift  uint32 // log2 of a chunk's words; fixed once a chunk exists
	lines  int    // lines of all caches built on the slab (sizes the chunks)
	words  int    // words of all those caches' blocks, every set touched
	block  int    // the largest block of any of them, in words

	mu      sync.Mutex
	taken   int           // chunks handed to cursors since the last rewind (under mu)
	cursors []*LineCursor // the bound workers' cursors, rewound by Reset

	sharedMu sync.Mutex
	shared   LineCursor // the cursor of callers that carry none (under sharedMu)
}

// LineCursor is one bound worker's place in its chip's line slab: first
// touches of the requests that carry it (Request.Lines) take their blocks
// from its current chunk. A cursor is used by one goroutine at a time, and
// it fills a 64 B host line of its own.
type LineCursor struct {
	slab      *lineSlab
	next, end uint32 // the current chunk's free slots
	// spare..spareEnd is what was left of the previous chunk when a block
	// did not fit there: smaller blocks still do, as caches of a chip
	// differ in block size.
	spare, spareEnd uint32
	_               [40]byte
}

// slabOf returns the line slab of the chip built on a, making it on first
// use; a nil arena gets a slab of its own.
func slabOf(a *arena.Arena) *lineSlab {
	return arena.Attached(a, func() *lineSlab {
		s := &lineSlab{}
		s.shared.slab = s
		return s
	})
}

// WorkerCursors returns n new cursors into the line slab of the chip built
// on a, one per bound worker, in place of the cursors an earlier call
// returned (they must no longer be in use). Cache.Reset rewinds them with
// the slab.
func WorkerCursors(a *arena.Arena, n int) []*LineCursor {
	s := slabOf(a)
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*LineCursor, n)
	for i := range out {
		out[i] = &LineCursor{slab: s}
	}
	s.cursors = out
	s.reserve(true)
	return out
}

// addBlocks accounts to the slab a cache's lines, and sets blocks grown by
// words words each to block words. Panics once the chip has taken a chunk:
// every cache's layout is fixed by its chip's first access.
func (s *lineSlab) addBlocks(lines, sets, words, block int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.started() {
		panic("cache: a cache was built or given a child after its chip's first access")
	}
	s.lines += lines
	s.words += sets * words
	s.block = max(s.block, block)
	s.reserve(false)
}

// reserve sizes the chunk table for the worst run, every set touched once,
// making it when build is set and growing it if it exists. A cursor leaves a
// chunk only when a block of at most s.block words does not fit, so each
// chunk it leaves holds at least chunk−block+1 words, more than half of it;
// add the chunk each cursor (the shared one too) may hold, and the unused
// chunk 0. Until the first chunk is taken the chunk size follows the chip.
// Caller holds mu; the caches must not be in use, unless the table exists
// and is big enough.
func (s *lineSlab) reserve(build bool) {
	if !s.started() {
		c := min(max(s.lines/chunkDiv, minChunkLines), maxChunkLines)
		s.shift = uint32(max(bits.Len(uint(c)), bits.Len(uint(max(2*s.block, 1)-1))))
	}
	chunk := 1 << s.shift
	n := 1 + s.words/(chunk-s.block+1) + 1 + len(s.cursors)
	if uint64(n)<<s.shift >= 1<<32 {
		panic("cache: the chip's blocks do not fit 32-bit slots")
	}
	if n > len(s.chunks) && (build || s.chunks != nil) {
		s.chunks = slices.Grow(s.chunks, n-len(s.chunks))[:n]
	}
}

// started reports whether any chunk was ever taken (chunk 1 is the first).
// Caller holds mu, or the caches are quiescent.
func (s *lineSlab) started() bool { return len(s.chunks) > 1 && s.chunks[1] != nil }

// take returns the slot of a new block of words zero words, from cur when
// it belongs to this slab and from the shared cursor otherwise.
func (s *lineSlab) take(cur *LineCursor, words int) uint32 {
	if cur != nil && cur.slab == s {
		return cur.take(words)
	}
	s.sharedMu.Lock()
	defer s.sharedMu.Unlock()
	return s.shared.take(words)
}

// take carves a block of words words from the spare if it fits there, else
// from the current chunk, moving on to the next chunk (and keeping the
// larger leftover as the spare) when the current one is too full.
func (cur *LineCursor) take(words int) uint32 {
	w := uint32(words)
	if cur.spareEnd-cur.spare >= w {
		slot := cur.spare
		cur.spare += w
		return slot
	}
	if cur.end-cur.next < w {
		if cur.end-cur.next > cur.spareEnd-cur.spare {
			cur.spare, cur.spareEnd = cur.next, cur.end
		}
		cur.next, cur.end = cur.slab.nextChunk()
	}
	slot := cur.next
	cur.next += w
	return slot
}

// nextChunk hands a cursor the next chunk, allocating it the first time any
// run reaches it; a chunk handed out again after a rewind is zero, because
// Reset cleared every block carved from it.
func (s *lineSlab) nextChunk() (first, end uint32) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.chunks == nil {
		s.reserve(true)
	}
	s.taken++
	i := s.taken
	if i >= len(s.chunks) {
		panic("cache: line slab exhausted (were all of the chip's caches Reset together?)")
	}
	if s.chunks[i] == nil {
		s.chunks[i] = &make([]uint64, 1<<s.shift)[0]
	}
	return uint32(i) << s.shift, uint32(i+1) << s.shift
}

// rewind makes every chunk free again. Every cache of the chip calls it
// from Reset, so after the first call it finds nothing taken and returns.
// Caller is quiescent and guarantees that every block carved since the last
// rewind is zero, or will be before the caches are used again.
func (s *lineSlab) rewind() {
	if s.taken == 0 {
		return // no cursor holds a chunk
	}
	s.taken = 0
	s.shared.rewind()
	for _, cur := range s.cursors {
		cur.rewind()
	}
}

func (cur *LineCursor) rewind() {
	cur.next, cur.end, cur.spare, cur.spareEnd = 0, 0, 0, 0
}
