package arena

import "testing"

func TestTakeCarvesZeroedStableSlices(t *testing.T) {
	a := New()
	s1 := Take[uint64](a, 100)
	if len(s1) != 100 || cap(s1) != 100 {
		t.Fatalf("len/cap: %d/%d", len(s1), cap(s1))
	}
	for i := range s1 {
		if s1[i] != 0 {
			t.Fatalf("arena memory not zeroed at %d", i)
		}
		s1[i] = uint64(i)
	}
	// A second take must not alias the first.
	s2 := Take[uint64](a, 100)
	for i := range s2 {
		if s2[i] != 0 {
			t.Fatalf("second take aliases the first at %d", i)
		}
	}
	for i := range s1 {
		if s1[i] != uint64(i) {
			t.Fatalf("first take corrupted at %d", i)
		}
	}
}

func TestTakeCapSpillsToHeapOnAppend(t *testing.T) {
	a := New()
	s := TakeCap[int](a, 0, 4)
	if len(s) != 0 || cap(s) != 4 {
		t.Fatalf("len/cap: %d/%d", len(s), cap(s))
	}
	next := Take[int](a, 1)
	// Appending past cap must reallocate (not bleed into the arena chunk).
	s = append(s, 1, 2, 3, 4, 5)
	if next[0] != 0 {
		t.Fatalf("append past cap overwrote the next arena object")
	}
}

func TestLargeTakeGetsDedicatedChunk(t *testing.T) {
	a := New()
	huge := Take[byte](a, 4<<20)
	if len(huge) != 4<<20 {
		t.Fatalf("len: %d", len(huge))
	}
	chunks, bytes := a.Stats()
	if chunks != 1 || bytes < 4<<20 {
		t.Fatalf("stats: chunks=%d bytes=%d", chunks, bytes)
	}
}

func TestNilArenaFallsBackToHeap(t *testing.T) {
	s := Take[int]((*Arena)(nil), 3)
	if len(s) != 3 {
		t.Fatalf("nil-arena take: %d", len(s))
	}
	p := One[int](nil)
	if p == nil || *p != 0 {
		t.Fatalf("nil-arena one")
	}
	if c, b := (*Arena)(nil).Stats(); c != 0 || b != 0 {
		t.Fatalf("nil-arena stats")
	}
}

func TestChunkAmortization(t *testing.T) {
	a := New()
	// Many small takes of one type consume O(log total + total/maxChunk)
	// chunks: geometric growth to the cap, then cap-sized chunks.
	for i := 0; i < 10000; i++ {
		_ = Take[uint64](a, 4)
	}
	chunks, _ := a.Stats()
	if chunks > 10 {
		t.Fatalf("10k 32-byte takes (320KB) should amortize into ≤10 chunks, used %d", chunks)
	}
	// A fresh arena's first take stays small: tiny systems must not pay the
	// max chunk size per type.
	b := New()
	_ = Take[uint64](b, 4)
	if _, bytes := b.Stats(); bytes > 4<<10 {
		t.Fatalf("first chunk should be small, got %d bytes", bytes)
	}
}

func TestAttachedIsOnePerArena(t *testing.T) {
	type shared struct{ n int }
	made := 0
	mk := func() *shared { made++; return &shared{n: made} }
	a := New()
	first := Attached(a, mk)
	if again := Attached(a, mk); again != first || made != 1 {
		t.Fatalf("second Attached made a new value (made %d)", made)
	}
	if other := Attached(New(), mk); other == first {
		t.Fatalf("two arenas share one attached value")
	}
	if x, y := Attached(nil, mk), Attached(nil, mk); x == y {
		t.Fatalf("a nil arena returned one value twice")
	}
}

// Reserve makes the next chunk exactly the reserved size, so takes summing
// to it cost that one chunk and leave no slack; a Reserve that already fits
// the current chunk takes nothing.
func TestReserveMakesExactChunk(t *testing.T) {
	a := New()
	Reserve[uint32](a, 1000)
	for range 10 {
		Take[uint32](a, 100)
	}
	if chunks, bytes := a.Stats(); chunks != 1 || bytes != 4000 {
		t.Fatalf("1,000 reserved uint32s took %d chunks, %d B; want 1 chunk of 4,000 B", chunks, bytes)
	}
	Take[uint32](a, 1) // no room left: a new, geometric chunk
	Reserve[uint32](a, 10)
	if chunks, _ := a.Stats(); chunks != 2 {
		t.Fatalf("a reserve that fits the current chunk took a chunk (%d chunks)", chunks)
	}
	Reserve[uint32](nil, 10)
	Reserve[uint32](a, 0)
	if chunks, _ := a.Stats(); chunks != 2 {
		t.Fatalf("an empty reserve took a chunk (%d chunks)", chunks)
	}
}
