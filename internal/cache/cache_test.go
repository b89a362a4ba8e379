package cache

import (
	"fmt"
	"math/bits"
	"reflect"
	"slices"
	"sync"
	"testing"
	"testing/quick"
	"unsafe"

	"zsim/internal/arena"
	"zsim/internal/stats"
)

// fakeMem is a terminal level with a fixed latency, standing in for a memory
// controller in cache-only tests.
type fakeMem struct {
	lat       uint32
	mu        sync.Mutex
	accesses  int
	writes    int
	lastWrite uint64 // line address of the latest write (writeback)
}

func (m *fakeMem) Access(req *Request) uint64 {
	m.mu.Lock()
	m.accesses++
	if req.Write {
		m.writes++
		m.lastWrite = req.LineAddr
	}
	m.mu.Unlock()
	req.addHop(999, HopMem, req.Cycle, m.lat)
	return req.Cycle + uint64(m.lat)
}

// newL1 builds a small standalone L1 backed by fakeMem.
func newL1(sizeKB, ways int) (*Cache, *fakeMem) {
	mem := &fakeMem{lat: 100}
	l1 := New(Config{SizeKB: sizeKB, Ways: ways, Latency: 4}, 1, nil)
	l1.SetParent(mem)
	return l1, mem
}

func TestLineAddr(t *testing.T) {
	if LineAddr(0) != 0 || LineAddr(63) != 0 || LineAddr(64) != 1 || LineAddr(130) != 2 {
		t.Fatalf("LineAddr broken")
	}
}

func TestStateAndHopStrings(t *testing.T) {
	for _, s := range []State{Invalid, Shared, Exclusive, Modified} {
		if s.String() == "" {
			t.Fatalf("state %d has no name", s)
		}
	}
	if State(9).String() != "?9" {
		t.Fatalf("unknown state fallback")
	}
	for _, k := range []HopKind{HopHit, HopMiss, HopMem, HopWB, HopNet, HopNetMem} {
		if k.String() == "" {
			t.Fatalf("hop kind %d has no name", k)
		}
	}
	if HopKind(9).String() != "hop(9)" {
		t.Fatalf("unknown hop fallback")
	}
}

func TestCacheColdMissThenHit(t *testing.T) {
	l1, mem := newL1(32, 8)
	req := &Request{LineAddr: 100, Cycle: 0}
	done := l1.Access(req)
	if done < 100 {
		t.Fatalf("cold miss should pay memory latency, finished at %d", done)
	}
	if l1.Misses.Get() != 1 || l1.Hits.Get() != 0 || mem.accesses != 1 {
		t.Fatalf("miss accounting wrong: misses=%d hits=%d mem=%d", l1.Misses.Get(), l1.Hits.Get(), mem.accesses)
	}
	done = l1.Access(&Request{LineAddr: 100, Cycle: 200})
	if done != 204 {
		t.Fatalf("hit should take the L1 latency (4), finished at %d", done)
	}
	if l1.Hits.Get() != 1 || mem.accesses != 1 {
		t.Fatalf("hit accounting wrong")
	}
	if l1.StateOf(100) != Exclusive {
		t.Fatalf("read-filled line should be Exclusive, got %v", l1.StateOf(100))
	}
}

func TestCacheWriteMakesModified(t *testing.T) {
	l1, _ := newL1(32, 8)
	l1.Access(&Request{LineAddr: 7, Write: true})
	if l1.StateOf(7) != Modified {
		t.Fatalf("written line should be Modified, got %v", l1.StateOf(7))
	}
	// Read then write: the write hit upgrades E -> M locally.
	l1.Access(&Request{LineAddr: 9})
	if l1.StateOf(9) != Exclusive {
		t.Fatalf("expected Exclusive")
	}
	l1.Access(&Request{LineAddr: 9, Write: true})
	if l1.StateOf(9) != Modified {
		t.Fatalf("write hit should upgrade to Modified")
	}
	if l1.Misses.Get() != 2 || l1.Hits.Get() != 1 {
		t.Fatalf("unexpected counts: misses=%d hits=%d", l1.Misses.Get(), l1.Hits.Get())
	}
}

func TestCacheCapacityEvictions(t *testing.T) {
	// 4 KB, 4-way => 64 lines. Touch 128 distinct lines: half must be evicted.
	l1, mem := newL1(4, 4)
	for i := uint64(0); i < 128; i++ {
		l1.Access(&Request{LineAddr: i})
	}
	if l1.Misses.Get() != 128 {
		t.Fatalf("all cold accesses should miss, got %d", l1.Misses.Get())
	}
	if l1.count(sEvictions) < 60 {
		t.Fatalf("expected ~64 evictions, got %d", l1.count(sEvictions))
	}
	if mem.accesses != 128 {
		t.Fatalf("memory should see every miss, got %d", mem.accesses)
	}
	// Clean evictions must not write back.
	if l1.count(sWritebacks) != 0 || mem.writes != 0 {
		t.Fatalf("clean evictions should not write back")
	}
}

func TestCacheDirtyEvictionWritesBack(t *testing.T) {
	l1, mem := newL1(4, 1) // direct-mapped, 64 lines
	// Write many distinct lines so dirty victims are evicted.
	for i := uint64(0); i < 256; i++ {
		l1.Access(&Request{LineAddr: i, Write: true})
	}
	if l1.count(sWritebacks) == 0 {
		t.Fatalf("dirty evictions should produce writebacks")
	}
	if mem.writes == 0 {
		t.Fatalf("writebacks should reach memory")
	}
}

func TestCacheLRUKeepsHotLine(t *testing.T) {
	// Direct conflict workload in one set with LRU: repeatedly touch the hot
	// line, cycle through others; the hot line should stay resident.
	l1, _ := newL1(4, 4)
	hot := uint64(1)
	l1.Access(&Request{LineAddr: hot})
	missesBefore := l1.Misses.Get()
	for rep := 0; rep < 50; rep++ {
		l1.Access(&Request{LineAddr: hot})
		// Touch a few cold lines (not enough to exceed the set's ways between
		// hot-line touches).
		l1.Access(&Request{LineAddr: uint64(1000 + rep)})
	}
	// The hot line itself should never miss again.
	hotMisses := uint64(0)
	if l1.StateOf(hot) == Invalid {
		hotMisses++
	}
	_ = missesBefore
	if hotMisses != 0 {
		t.Fatalf("LRU should keep the hot line resident")
	}
}

func TestHopRecording(t *testing.T) {
	l1, _ := newL1(32, 8)
	req := &Request{LineAddr: 5, Cycle: 10, RecordHops: true}
	l1.Access(req)
	if len(req.Hops) < 2 {
		t.Fatalf("miss should record L1 and memory hops, got %v", req.Hops)
	}
	if req.Hops[0].Kind != HopMiss || req.Hops[0].Comp != 1 {
		t.Fatalf("first hop should be the L1 miss: %+v", req.Hops[0])
	}
	last := req.Hops[len(req.Hops)-1]
	if last.Kind != HopMem {
		t.Fatalf("last hop should be memory: %+v", last)
	}
	// A hit records a single hop.
	req2 := &Request{LineAddr: 5, Cycle: 200, RecordHops: true}
	l1.Access(req2)
	if len(req2.Hops) != 1 || req2.Hops[0].Kind != HopHit {
		t.Fatalf("hit should record one hit hop, got %v", req2.Hops)
	}
	// Without RecordHops nothing is recorded.
	req3 := &Request{LineAddr: 6}
	l1.Access(req3)
	if len(req3.Hops) != 0 {
		t.Fatalf("hops recorded without RecordHops")
	}
}

// buildTwoLevel builds 2 cores x (L1) -> shared L2 -> fakeMem, returning the
// L1s, the L2 and the memory.
func buildTwoLevel() (l1s []*Cache, l2 *Cache, mem *fakeMem) {
	mem = &fakeMem{lat: 100}
	l2 = New(Config{SizeKB: 256, Ways: 8, Latency: 7}, 10, nil)
	l2.SetParent(mem)
	for i := 0; i < 2; i++ {
		l1 := New(Config{SizeKB: 32, Ways: 8, Latency: 4}, i, nil)
		l1.SetParent(l2)
		l2.AddChild(l1)
		l1s = append(l1s, l1)
	}
	return
}

func TestCoherenceInvalidationOnWrite(t *testing.T) {
	l1s, _, _ := buildTwoLevel()
	lineA := uint64(0x1000)

	// Core 0 reads the line, core 1 reads the line: both L1s hold it.
	l1s[0].Access(&Request{LineAddr: lineA, CoreID: 0})
	l1s[1].Access(&Request{LineAddr: lineA, CoreID: 1})
	if l1s[0].StateOf(lineA) == Invalid || l1s[1].StateOf(lineA) == Invalid {
		t.Fatalf("both L1s should hold the line after reads")
	}

	// Core 1 writes the line: core 0's copy must be invalidated via the L2
	// directory.
	l1s[1].Access(&Request{LineAddr: lineA, CoreID: 1, Write: true})
	if l1s[0].StateOf(lineA) != Invalid {
		t.Fatalf("core 0's copy should be invalidated by core 1's write")
	}
	if l1s[1].StateOf(lineA) != Modified {
		t.Fatalf("writer should hold the line Modified, got %v", l1s[1].StateOf(lineA))
	}
	if l1s[0].count(sInvals) == 0 {
		t.Fatalf("invalidation should be counted at the victim L1")
	}
}

func TestInclusiveEvictionInvalidatesChildren(t *testing.T) {
	// Tiny L2 (direct-mapped, 4KB = 64 lines) with a larger L1 would violate
	// inclusion unless L2 evictions invalidate the L1 copy.
	mem := &fakeMem{lat: 100}
	l2 := New(Config{SizeKB: 4, Ways: 1, Latency: 7}, 10, nil)
	l2.SetParent(mem)
	l1 := New(Config{SizeKB: 32, Ways: 8, Latency: 4}, 0, nil)
	l1.SetParent(l2)
	l2.AddChild(l1)

	// Fill far more lines than the L2 holds.
	for i := uint64(0); i < 512; i++ {
		l1.Access(&Request{LineAddr: i})
	}
	// Inclusion: any line still in L1 must also be in L2.
	violations := 0
	for i := uint64(0); i < 512; i++ {
		if l1.StateOf(i) != Invalid && l2.StateOf(i) == Invalid {
			violations++
		}
	}
	if violations != 0 {
		t.Fatalf("inclusion violated for %d lines", violations)
	}
	if l1.count(sInvals) == 0 {
		t.Fatalf("L2 evictions should have invalidated L1 copies")
	}
}

func TestDirtyChildWritebackOnParentEviction(t *testing.T) {
	mem := &fakeMem{lat: 100}
	l2 := New(Config{SizeKB: 4, Ways: 1, Latency: 7}, 10, nil)
	l2.SetParent(mem)
	l1 := New(Config{SizeKB: 32, Ways: 8, Latency: 4}, 0, nil)
	l1.SetParent(l2)
	l2.AddChild(l1)

	// Dirty a line in L1, then force it out of L2 via conflict misses.
	l1.Access(&Request{LineAddr: 1, Write: true})
	for i := uint64(100); i < 400; i++ {
		l1.Access(&Request{LineAddr: i})
	}
	if mem.writes == 0 {
		t.Fatalf("dirty data must eventually be written back to memory")
	}
}

func TestBankedRouting(t *testing.T) {
	mem := &fakeMem{lat: 100}
	var banks []*Cache
	for i := 0; i < 4; i++ {
		b := New(Config{SizeKB: 256, Ways: 16, Latency: 14}, 20+i, nil)
		b.SetParent(mem)
		banks = append(banks, b)
	}
	l3 := NewBanked(banks, func(int, int) uint32 { return 5 })
	if len(l3.banks) != 4 {
		t.Fatalf("banked setup wrong")
	}

	// The same line always routes to the same bank; different lines spread.
	seen := make(map[int]int)
	for i := uint64(0); i < 1000; i++ {
		b := l3.BankOf(i)
		if b != l3.BankOf(i) {
			t.Fatalf("bank routing must be deterministic")
		}
		seen[b]++
	}
	if len(seen) != 4 {
		t.Fatalf("lines should spread across all banks, got %v", seen)
	}
	for b, n := range seen {
		if n < 100 {
			t.Fatalf("bank %d underused: %d/1000", b, n)
		}
	}

	// Access adds network latency both ways: a miss in bank with mem latency
	// 100 and bank latency 14 plus 2*5 network >= 124.
	done := l3.Access(&Request{LineAddr: 42, Cycle: 0})
	if done < 124 {
		t.Fatalf("banked access should include network and bank latency, got %d", done)
	}
	// Now a hit.
	done = l3.Access(&Request{LineAddr: 42, Cycle: 1000})
	if done != 1000+5+14+5 {
		t.Fatalf("banked hit latency wrong: %d", done)
	}
}

func TestBankedDistanceFunc(t *testing.T) {
	mem := &fakeMem{lat: 0}
	b0 := New(Config{SizeKB: 64, Ways: 4, Latency: 10}, 1, nil)
	b0.SetParent(mem)
	l3 := NewBanked([]*Cache{b0}, func(coreID, bank int) uint32 { return uint32(7 * (coreID + 1)) })
	done := l3.Access(&Request{LineAddr: 1, Cycle: 0, CoreID: 1})
	// distance = 14 each way, bank hit-miss to mem lat 0 => 14 + 10 + 0 + 14
	if done != 38 {
		t.Fatalf("distance-based latency wrong: %d", done)
	}
}

func TestMemRouter(t *testing.T) {
	m0 := &fakeMem{lat: 50}
	m1 := &fakeMem{lat: 50}
	r := NewMemRouter([]Level{m0, m1}, 10)
	if len(r.ctrls) != 2 {
		t.Fatalf("router setup wrong")
	}
	for i := uint64(0); i < 200; i++ {
		r.Access(&Request{LineAddr: i})
	}
	if m0.accesses == 0 || m1.accesses == 0 {
		t.Fatalf("requests should spread across controllers: %d/%d", m0.accesses, m1.accesses)
	}
	if m0.accesses+m1.accesses != 200 {
		t.Fatalf("every request must hit exactly one controller")
	}
	done := r.Access(&Request{LineAddr: 5, Cycle: 0})
	if done != 70 {
		t.Fatalf("router latency should be 10+50+10=70, got %d", done)
	}
}

// validLines returns the lines valid in c. c must be quiescent.
func validLines(c *Cache) []uint64 {
	var out []uint64
	for set := range c.slots {
		for _, k := range c.keys(c.blockOf(set)) {
			if stateOf(k) != Invalid {
				out = append(out, tagOf(k))
			}
		}
	}
	return out
}

// 8 L1s sharing an L2, hammered concurrently with overlapping lines, with
// striped L1s and with private (one-stripe) ones. At quiescence the counts
// add up and the hierarchy is still inclusive.
func TestConcurrentAccessesNoDeadlock(t *testing.T) {
	for _, private := range []bool{false, true} {
		mem := &fakeMem{lat: 100}
		l2 := New(Config{SizeKB: 64, Ways: 8, Latency: 7}, 10, nil)
		l2.SetParent(mem)
		var l1s []*Cache
		for i := 0; i < 8; i++ {
			l1 := New(Config{SizeKB: 8, Ways: 4, Latency: 4, Private: private}, i, nil)
			l1.SetParent(l2)
			l2.AddChild(l1)
			l1s = append(l1s, l1)
		}
		if n := len(l1s[0].stripes); private != (n == 1) {
			t.Fatalf("private=%v L1 has %d stripes", private, n)
		}
		var wg sync.WaitGroup
		for c := 0; c < 8; c++ {
			wg.Add(1)
			go func(core int) {
				defer wg.Done()
				rng := uint64(core + 1)
				for i := 0; i < 5000; i++ {
					rng ^= rng << 13
					rng ^= rng >> 7
					rng ^= rng << 17
					line := rng % 512 // heavy sharing across cores
					write := rng&3 == 0
					l1s[core].Access(&Request{LineAddr: line, Write: write, CoreID: core})
				}
			}(c)
		}
		wg.Wait()
		var hits, misses, writebacks uint64
		for i, l1 := range l1s {
			hits += l1.Hits.Get()
			misses += l1.Misses.Get()
			writebacks += l1.count(sWritebacks)
			for _, line := range validLines(l1) {
				if l2.StateOf(line) == Invalid {
					t.Fatalf("private=%v: line %d is valid in L1 %d but not in the L2", private, line, i)
				}
			}
		}
		if hits+misses != 8*5000 {
			t.Fatalf("private=%v: every access must be either a hit or a miss: %d + %d != %d", private, hits, misses, 8*5000)
		}
		// Every L1 miss and writeback is exactly one L2 access.
		if l2Acc := l2.Hits.Get() + l2.Misses.Get(); l2Acc != misses+writebacks {
			t.Fatalf("private=%v: L2 saw %d accesses, want L1 misses %d + writebacks %d", private, l2Acc, misses, writebacks)
		}
	}
}

// Property: for a single cache, hits + misses always equals the number of
// accesses, and the number of resident lines never exceeds capacity.
func TestCacheAccountingInvariant(t *testing.T) {
	f := func(addrs []uint16, writes []bool) bool {
		l1, _ := newL1(4, 2)
		n := len(addrs)
		if len(writes) < n {
			n = len(writes)
		}
		for i := 0; i < n; i++ {
			l1.Access(&Request{LineAddr: uint64(addrs[i] % 512), Write: writes[i]})
		}
		if l1.Hits.Get()+l1.Misses.Get() != uint64(n) {
			return false
		}
		resident := 0
		for a := uint64(0); a < 512; a++ {
			if l1.StateOf(a) != Invalid {
				resident++
			}
		}
		return resident <= l1.sets*l1.ways
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: single-writer invariant — after any sequence of reads and writes
// from two cores, a line Modified in one L1 is never present in the other.
func TestCoherenceSingleWriterInvariant(t *testing.T) {
	f := func(ops []uint8) bool {
		l1s, _, _ := buildTwoLevel()
		for _, op := range ops {
			core := int(op & 1)
			write := op&2 != 0
			line := uint64((op >> 2) % 8) // few lines -> heavy conflicts
			l1s[core].Access(&Request{LineAddr: line, Write: write, CoreID: core})
		}
		for lineA := uint64(0); lineA < 8; lineA++ {
			m0 := l1s[0].StateOf(lineA) == Modified
			m1 := l1s[1].StateOf(lineA) == Modified
			p0 := l1s[0].StateOf(lineA) != Invalid
			p1 := l1s[1].StateOf(lineA) != Invalid
			if m0 && p1 {
				return false
			}
			if m1 && p0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// A set's block takes 12 bytes per way in a cache without children (an
// 8-byte key and a 4-byte LRU stamp), 16 with up to 32 children (a 4-byte
// sharer mask beside them) and 20 with more (an 8-byte mask), and no block
// holds a pointer: the slab's chunks are plain words, so the GC scans
// neither them nor the slot tables, which hold one 4-byte slot per set. A
// lock stripe with its statistics fills one 64 B host line, as does a line
// cursor, and the chunk table holds one pointer per chunk.
func TestBlockLayout(t *testing.T) {
	for _, tc := range []struct{ children, perWay int }{{0, 12}, {1, 16}, {32, 16}, {33, 20}, {64, 20}} {
		for _, ways := range []int{2, 8, 16} {
			c := New(Config{SizeKB: 64, Ways: ways, Latency: 4}, 0, nil)
			for range tc.children {
				c.AddChild(New(Config{SizeKB: 1, Ways: 1}, 1, nil))
			}
			if got := int(c.blockWords) * 8; got != tc.perWay*ways {
				t.Errorf("%d ways, %d children: block of %d B, want %d", ways, tc.children, got, tc.perWay*ways)
			}
			if got := c.slab.words; got != c.sets*int(c.blockWords) {
				t.Errorf("%d ways, %d children: slab accounts %d words, want %d", ways, tc.children, got, c.sets*int(c.blockWords))
			}
		}
	}
	if n := unsafe.Sizeof(stripe{}); n != 64 {
		t.Fatalf("stripe is %d bytes, want 64", n)
	}
	if n := unsafe.Sizeof(LineCursor{}); n != 64 {
		t.Fatalf("line cursor is %d bytes, want 64", n)
	}
	var c Cache
	if n := unsafe.Sizeof(c.slots[0]); n != 4 {
		t.Fatalf("set-table entry is %d bytes, want 4", n)
	}
	if k := reflect.TypeOf(c.slots).Elem().Kind(); k != reflect.Uint32 {
		t.Fatalf("set-table entry is a %v, want a uint32", k)
	}
	var s lineSlab
	if k := reflect.TypeOf(s.chunks).Elem().Elem().Kind(); k != reflect.Uint64 {
		t.Fatalf("a chunk holds %v words, want uint64", k)
	}
	if n := unsafe.Sizeof(s.chunks[0]); n != 8 {
		t.Fatalf("chunk-table entry is %d bytes, want 8", n)
	}
}

// A child added once the chip has served an access would change the
// parent's block layout under blocks already carved: AddChild panics.
func TestAddChildAfterFirstAccessPanics(t *testing.T) {
	a := arena.New()
	reg := stats.NewRegistryIn("chip", a)
	l2 := New(Config{SizeKB: 64, Ways: 8, Latency: 7}, 1, reg.Child("l2"))
	l2.SetParent(&fakeMem{lat: 100})
	l1 := New(Config{SizeKB: 4, Ways: 2, Latency: 4}, 0, reg.Child("l1"))
	l1.Access(&Request{LineAddr: 1})
	defer func() {
		if recover() == nil {
			t.Fatalf("AddChild after the chip's first access did not panic")
		}
	}()
	l2.AddChild(l1)
}

// accessResult is what one access of a replayed stream reports.
type accessResult struct {
	done      uint64
	fill      State
	state     State
	dirtyInv  bool
	hits      uint64
	misses    uint64
	evictions uint64
}

// replayStream drives a mixed stream of reads, writes, capacity evictions
// and explicit invalidations through two L1s sharing a small L2, and records
// each step's return cycle, FillState, resulting state and counters.
func replayStream(l1s []*Cache, l2 *Cache) []accessResult {
	var out []accessResult
	rng := uint64(12345)
	for i := 0; i < 4000; i++ {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		core := int(rng & 1)
		lineA := (rng >> 8) % 600 // the L2 holds 256 lines: it evicts
		var r accessResult
		switch op := (rng >> 4) % 8; {
		case op == 0:
			r.dirtyInv = l2.Invalidate(lineA)
		case op == 1:
			r.dirtyInv = l1s[core].Invalidate(lineA)
		default:
			req := &Request{LineAddr: lineA, Write: op >= 5, CoreID: core, Cycle: uint64(i) * 10}
			r.done = l1s[core].Access(req)
			r.fill = req.FillState
		}
		r.state = l1s[core].StateOf(lineA)
		for _, c := range append([]*Cache{l2}, l1s...) {
			r.hits += c.Hits.Get()
			r.misses += c.Misses.Get()
			r.evictions += c.count(sEvictions)
		}
		out = append(out, r)
	}
	return out
}

// replayHierarchy builds replayStream's two L1s, private or striped, under a
// small L2.
func replayHierarchy(private bool) ([]*Cache, *Cache) {
	mem := &fakeMem{lat: 100}
	l2 := New(Config{SizeKB: 16, Ways: 4, Latency: 7}, 10, nil)
	l2.SetParent(mem)
	var l1s []*Cache
	for i := 0; i < 2; i++ {
		l1 := New(Config{SizeKB: 2, Ways: 2, Latency: 4, Private: private}, i, nil)
		l1.SetParent(l2)
		l2.AddChild(l1)
		l1s = append(l1s, l1)
	}
	return l1s, l2
}

// A private L1's one stripe replays a stream exactly as per-set stripes do:
// LRU compares stamps within one set, and a set's stamps follow its access
// order under either clock.
func TestPrivateReplaysLikeStriped(t *testing.T) {
	striped := replayStream(replayHierarchy(false))
	l1s, l2 := replayHierarchy(true)
	if len(l1s[0].stripes) != 1 {
		t.Fatalf("private L1 has %d stripes", len(l1s[0].stripes))
	}
	private := replayStream(l1s, l2)
	for i := range striped {
		if striped[i] != private[i] {
			t.Fatalf("step %d with private L1s: %+v, striped %+v", i, private[i], striped[i])
		}
	}
}

// Two identical hierarchies replay one stream, one of them with every
// stripe clock started a few ticks below 2^32, so each stripe restamps its
// sets (to their ranks) part-way through. Every step's outcome, every
// count and every set's keys and sharer masks must match: restamping keeps
// each set's stamp order, so no victim choice moves.
func TestStampWrapReplaysLikeFresh(t *testing.T) {
	for _, private := range []bool{false, true} {
		l1sA, l2A := replayHierarchy(private)
		l1sB, l2B := replayHierarchy(private)
		cachesA, cachesB := append([]*Cache{l2A}, l1sA...), append([]*Cache{l2B}, l1sB...)
		for _, c := range cachesB {
			for i := range c.stripes {
				c.stripes[i].useCt = maxStamp - uint32(i%13*3)
			}
		}
		want, got := replayStream(l1sA, l2A), replayStream(l1sB, l2B)
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("private=%v step %d with wrapping clocks: %+v, want %+v", private, i, got[i], want[i])
			}
		}
		for ci, a := range cachesA {
			b := cachesB[ci]
			wrapped := 0
			for i := range b.stripes {
				if b.stripes[i].useCt < maxStamp/2 {
					wrapped++
				}
			}
			if wrapped == 0 {
				t.Fatalf("private=%v cache %d: no stripe clock wrapped", private, ci)
			}
			for i := range numStats {
				if a.count(i) != b.count(i) {
					t.Fatalf("private=%v cache %d statistic %d: %d, want %d", private, ci, i, b.count(i), a.count(i))
				}
			}
			for set := range a.slots {
				ba, bb := a.blockOf(set), b.blockOf(set)
				if !slices.Equal(a.keys(ba), b.keys(bb)) {
					t.Fatalf("private=%v cache %d set %d: keys %x, want %x", private, ci, set, b.keys(bb), a.keys(ba))
				}
				for w := range a.keys(ba) {
					if a.sharers(ba, w) != b.sharers(bb, w) {
						t.Fatalf("private=%v cache %d set %d way %d: sharers %b, want %b", private, ci, set, w, b.sharers(bb, w), a.sharers(ba, w))
					}
				}
			}
		}
	}
}

// A Reset hierarchy replays a stream exactly as it ran when fresh.
func TestResetReplaysLikeFresh(t *testing.T) {
	l1s, l2 := replayHierarchy(false)
	fresh := replayStream(l1s, l2)
	last := fresh[len(fresh)-1]
	if last.evictions == 0 || last.hits == 0 || !slices.ContainsFunc(fresh, func(r accessResult) bool { return r.dirtyInv }) {
		t.Fatalf("stream should hit, evict and invalidate dirty lines: %+v", last)
	}
	for _, c := range append([]*Cache{l2}, l1s...) {
		c.Reset()
	}
	again := replayStream(l1s, l2)
	for i := range fresh {
		if fresh[i] != again[i] {
			t.Fatalf("step %d after Reset: %+v, fresh %+v", i, again[i], fresh[i])
		}
	}
}

// Coherence actions and lookups on never-touched sets find nothing and
// allocate nothing: the set stays untouched.
func TestUntouchedSetsStayNil(t *testing.T) {
	c := New(Config{SizeKB: 64, Ways: 8, Latency: 4}, 0, nil)
	allocs := testing.AllocsPerRun(10, func() {
		for a := uint64(0); a < 1024; a++ {
			if c.Invalidate(a) || c.Downgrade(a) || c.StateOf(a) != Invalid {
				t.Fatalf("line %d found in an empty cache", a)
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("lookups on untouched sets allocated %.0f times", allocs)
	}
	for set, slot := range c.slots {
		if slot != 0 {
			t.Fatalf("set %d was given ways by a lookup", set)
		}
	}
	if c.slab.started() {
		t.Fatalf("lookups took a chunk from the line slab")
	}
}

// The highest line address keeps every tag bit: it installs, reads back,
// is written back under its own address and invalidates.
func TestHighestLineAddr(t *testing.T) {
	top := LineAddr(^uint64(0))
	l1, mem := newL1(4, 1) // direct-mapped: the next line in the set evicts it
	l1.Access(&Request{LineAddr: top, Write: true})
	if got := l1.StateOf(top); got != Modified {
		t.Fatalf("StateOf(top) = %v, want M", got)
	}
	if l1.StateOf(top^1) != Invalid || l1.StateOf(top>>1) != Invalid {
		t.Fatalf("a neighbouring address aliases the top line")
	}
	if !l1.Invalidate(top) || l1.StateOf(top) != Invalid {
		t.Fatalf("Invalidate(top) should report dirty and leave the line Invalid")
	}
	l1.Access(&Request{LineAddr: top, Write: true})
	set := l1.setOf(top)
	other := uint64(0)
	for l1.setOf(other) != set {
		other++
	}
	l1.Access(&Request{LineAddr: other})
	if l1.count(sWritebacks) != 1 || mem.lastWrite != top {
		t.Fatalf("evicting the top line wrote back %#x (%d writebacks), want %#x", mem.lastWrite, l1.count(sWritebacks), top)
	}
}

// dirtySets returns how many bits the cache's dirty bitmap holds.
func dirtySets(c *Cache) int {
	n := 0
	for _, w := range c.dirty {
		n += bits.OnesCount64(w)
	}
	return n
}

// assertClear fails unless every slot is 0, every word of the cache's slab
// is zero and its cursors are rewound, every count is zero and the dirty
// bitmap is empty: the cache equals a fresh one.
func assertClear(t *testing.T, c *Cache, when string) {
	t.Helper()
	for set, slot := range c.slots {
		if slot != 0 {
			t.Fatalf("%s: set %d still holds slot %d", when, set, slot)
		}
	}
	s := c.slab
	for i, p := range s.chunks {
		if p == nil {
			continue
		}
		for j, w := range unsafe.Slice(p, 1<<s.shift) {
			if w != 0 {
				t.Fatalf("%s: slab chunk %d word %d holds %#x", when, i, j, w)
			}
		}
	}
	if s.taken != 0 {
		t.Fatalf("%s: slab not rewound: %d chunks taken", when, s.taken)
	}
	for i, cur := range append([]*LineCursor{&s.shared}, s.cursors...) {
		if *cur != (LineCursor{slab: s}) {
			t.Fatalf("%s: cursor %d not rewound: %+v", when, i, *cur)
		}
	}
	for i := range numStats {
		if n := c.count(i); n != 0 {
			t.Fatalf("%s: statistic %d is %d", when, i, n)
		}
	}
	if n := dirtySets(c); n != 0 {
		t.Fatalf("%s: %d dirty bits left", when, n)
	}
}

// Two runs install into disjoint groups of sets, each followed by a Reset:
// every line of both groups ends Invalid, every way zero, every count zero
// and the bitmap empty. The geometries cover several bitmap words per
// stripe, a set count that does not divide by the stripe count, and a
// private cache's single stripe.
func TestResetClearsOnlyInstalledSets(t *testing.T) {
	for _, cfg := range []Config{
		{SizeKB: 2048, Ways: 4, Latency: 4},
		{SizeKB: 100, Ways: 4, Latency: 4},
		{SizeKB: 2048, Ways: 4, Latency: 4, Private: true},
	} {
		c := New(cfg, 0, nil)
		c.SetParent(&fakeMem{lat: 100})
		var groupA, groupB []uint64
		for a := uint64(0); len(groupA) < 300 || len(groupB) < 300; a += 7 {
			if c.setOf(a) < c.sets/2 {
				groupA = append(groupA, a)
			} else {
				groupB = append(groupB, a)
			}
		}
		run := func(lines []uint64) {
			touched := map[int]bool{}
			for i, a := range lines {
				c.Access(&Request{LineAddr: a, Write: i%3 == 0})
				touched[c.setOf(a)] = true
			}
			if n := dirtySets(c); n != len(touched) {
				t.Fatalf("%+v: %d dirty bits after installing into %d sets", cfg, n, len(touched))
			}
			c.Reset()
		}
		run(groupA)
		assertClear(t, c, fmt.Sprintf("%+v after run A", cfg))
		run(groupB)
		for _, a := range append(groupA, groupB...) {
			if s := c.StateOf(a); s != Invalid {
				t.Fatalf("%+v: line %d is %v after both Resets", cfg, a, s)
			}
		}
		assertClear(t, c, fmt.Sprintf("%+v after run B", cfg))
	}
}

// A fully associative cache, one set of 32,768 ways, takes a chunk of its
// own size class from its slab: it fills, hits, and resets clear.
func TestFullyAssociativeSlab(t *testing.T) {
	c := New(Config{SizeKB: 2048, Ways: 32768, Latency: 4}, 0, nil)
	c.SetParent(&fakeMem{lat: 100})
	if c.sets != 1 {
		t.Fatalf("%d sets, want 1", c.sets)
	}
	for pass := range 2 {
		for a := uint64(0); a < 200; a++ {
			c.Access(&Request{LineAddr: a * 977})
		}
		if pass == 1 && c.Hits.Get() != 200 {
			t.Fatalf("second pass hit %d of 200 lines", c.Hits.Get())
		}
	}
	c.Reset()
	assertClear(t, c, "after Reset")
}

// Goroutines install into every stripe of one shared cache at once, so the
// race detector sees the dirty-bit marks, each made under its set's stripe
// lock, and the restamps that read them; a Reset afterwards must then leave
// the cache clear.
func TestConcurrentInstallsMarkEveryStripe(t *testing.T) {
	c := New(Config{SizeKB: 1024, Ways: 4, Latency: 4}, 0, nil)
	c.SetParent(&fakeMem{lat: 100})
	// Clocks near the wrap make the stripes restamp their sets while other
	// stripes' sets are being installed.
	for i := range c.stripes {
		c.stripes[i].useCt = maxStamp - uint32(i)
	}
	const workers = 4
	var wg sync.WaitGroup
	for g := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for a := uint64(g); a < uint64(2*c.sets); a += workers {
				c.Access(&Request{LineAddr: a, Write: a%5 == 0})
			}
		}()
	}
	wg.Wait()
	installed := 0
	for set := range c.slots {
		if c.slots[set] != 0 && slices.ContainsFunc(c.keys(c.blockOf(set)), func(k uint64) bool { return stateOf(k) != Invalid }) {
			installed++
		}
	}
	if n := dirtySets(c); n != installed || n < c.sets/2 {
		t.Fatalf("%d dirty bits for %d installed sets of %d", n, installed, c.sets)
	}
	c.Reset()
	assertClear(t, c, "after Reset")
}

// BenchmarkResetSparse installs a few dozen lines into a 64 MB cache and
// resets it: the cost a warm job pays for a big shared cache it barely used.
// The accesses carry a bound worker's line cursor, as a job's do.
func BenchmarkResetSparse(b *testing.B) {
	a := arena.New()
	c := New(Config{SizeKB: 64 << 10, Ways: 16, Latency: 12}, 0, stats.NewRegistryIn("l3", a))
	c.SetParent(&fakeMem{lat: 100})
	cur := WorkerCursors(a, 1)[0]
	req := &Request{}
	for b.Loop() {
		for a := uint64(0); a < 48; a++ {
			*req = Request{LineAddr: a * 4099, Lines: cur}
			c.Access(req)
		}
		c.Reset()
	}
}

// slabChip builds a small chip's caches on one arena, so they share one line
// slab: four L1s of 4 and 8 ways under a 16-way shared L2, with a cursor per
// L1 for the goroutine that drives it.
func slabChip() (l1s []*Cache, l2 *Cache, curs []*LineCursor) {
	a := arena.New()
	reg := stats.NewRegistryIn("chip", a)
	l2 = New(Config{SizeKB: 2048, Ways: 16, Latency: 7}, 10, reg.Child("l2"))
	l2.SetParent(&fakeMem{lat: 100})
	for i := range 4 {
		l1 := New(Config{SizeKB: 16, Ways: 4 << (i % 2), Latency: 4, Private: true}, i, reg.ChildIdx("l1", i))
		l1.SetParent(l2)
		l2.AddChild(l1)
		l1s = append(l1s, l1)
	}
	return l1s, l2, WorkerCursors(a, len(l1s))
}

// slabBytes returns the bytes of the chunks the slab has allocated.
func slabBytes(s *lineSlab) int {
	n := 0
	for _, p := range s.chunks {
		if p != nil {
			n += 8 << s.shift
		}
	}
	return n
}

// Goroutines hammer first touches of one slab at once, half of them through
// their own cursors and half through the shared one, on private L1s and a
// shared L2. The slab then holds no more than the touched sets' blocks, plus
// one chunk per cursor (the shared one too) and the largest block less one
// word per chunk, and
// a Reset leaves every cache clear. A second round reuses the chunks: the
// slab stays within the same bound.
func TestSlabLineBytesBounded(t *testing.T) {
	l1s, l2, curs := slabChip()
	s := l2.slab
	round := func(seed uint64) {
		var wg sync.WaitGroup
		for g, l1 := range l1s {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var cur *LineCursor
				if g%2 == 0 {
					cur = curs[g]
				}
				rng := seed + uint64(g)
				for range 3000 {
					rng ^= rng << 13
					rng ^= rng >> 7
					rng ^= rng << 17
					l1.Access(&Request{LineAddr: rng % 1024, Write: rng&3 == 0, CoreID: g, Lines: cur})
				}
			}()
		}
		wg.Wait()
	}
	caches := append([]*Cache{l2}, l1s...)
	check := func(when string) {
		touched, chunks := 0, 0
		for _, c := range caches {
			for _, slot := range c.slots {
				if slot != 0 {
					touched += int(c.blockWords)
				}
			}
		}
		for _, chunk := range s.chunks {
			if chunk != nil {
				chunks++
			}
		}
		chunkWords := 1 << s.shift
		bound := 8 * (touched + (len(s.cursors)+1)*chunkWords + chunks*(s.block-1))
		if got := slabBytes(s); got > bound || touched == 0 {
			t.Fatalf("%s: slab holds %d B for %d touched block words in %d chunks of %d words; bound %d B",
				when, got, touched, chunks, chunkWords, bound)
		}
	}
	// The streams touch the same sets each round; how the goroutines
	// interleave moves only which cursor carves which block.
	for _, when := range []string{"round 1", "round 2 after Reset"} {
		round(1)
		check(when)
		for _, c := range caches {
			c.Reset()
		}
		for _, c := range caches {
			assertClear(t, c, when+", then Reset")
		}
	}
}

// Reset clears only the sets with a dirty bit, and a slot it missed would
// name lines the rewound slab hands out again: every set that holds a slot
// has its dirty bit, under evictions, coherence invalidations and
// write upgrades.
func TestSlottedSetsAreDirty(t *testing.T) {
	l1s, l2, curs := slabChip()
	rng := uint64(99)
	for i := range 20000 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		core := int(rng % 4)
		if i%7 == 0 {
			l2.Invalidate(rng >> 8 % 8192)
			continue
		}
		l1s[core].Access(&Request{LineAddr: rng >> 8 % 8192, Write: rng&16 != 0, CoreID: core, Lines: curs[core]})
	}
	for _, c := range append([]*Cache{l2}, l1s...) {
		slotted := 0
		for set, slot := range c.slots {
			if slot == 0 {
				continue
			}
			slotted++
			i := set >> c.stripeShift
			if c.dirty[(set&c.stripeMask)*c.dirtyWords+i/64]&(1<<(i%64)) == 0 {
				t.Fatalf("set %d holds slot %d but no dirty bit", set, slot)
			}
		}
		if n := dirtySets(c); n != slotted || n == 0 {
			t.Fatalf("%d dirty bits for %d slotted sets", n, slotted)
		}
	}
}
