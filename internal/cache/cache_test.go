package cache

import (
	"slices"
	"sync"
	"testing"
	"testing/quick"
	"unsafe"
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
	l1 := New(Config{SizeKB: sizeKB, Ways: ways, Latency: 4, MSHRs: 8}, 1, nil)
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
	for _, k := range []HopKind{HopHit, HopMiss, HopMem, HopWB, HopInval} {
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
	l3 := NewBanked(banks, 5)
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
	l3 := NewBanked([]*Cache{b0}, 3)
	l3.SetDistanceFunc(func(coreID, bank int) uint32 { return uint32(7 * (coreID + 1)) })
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
	if r.NumControllers() != 2 {
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

type observerFunc struct {
	calls int
	last  uint64
}

func (o *observerFunc) ObserveAccess(lineAddr uint64, write bool, coreID int, cycle uint64) {
	o.calls++
	o.last = lineAddr
}

func TestAccessObserverCalledOnce(t *testing.T) {
	l1s, _, _ := buildTwoLevel()
	obs := &observerFunc{}
	l1s[0].Access(&Request{LineAddr: 77, Prof: obs})
	if obs.calls != 1 || obs.last != 77 {
		t.Fatalf("observer should be called exactly once at the first level: %+v", obs)
	}
}

func TestConcurrentAccessesNoDeadlock(t *testing.T) {
	// 8 L1s sharing an L2, hammered concurrently with overlapping lines.
	mem := &fakeMem{lat: 100}
	l2 := New(Config{SizeKB: 64, Ways: 8, Latency: 7}, 10, nil)
	l2.SetParent(mem)
	var l1s []*Cache
	for i := 0; i < 8; i++ {
		l1 := New(Config{SizeKB: 8, Ways: 4, Latency: 4}, i, nil)
		l1.SetParent(l2)
		l2.AddChild(l1)
		l1s = append(l1s, l1)
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
	for _, l1 := range l1s {
		hits += l1.Hits.Get()
		misses += l1.Misses.Get()
		writebacks += l1.count(sWritebacks)
	}
	if hits+misses != 8*5000 {
		t.Fatalf("every access must be either a hit or a miss: %d + %d != %d", hits, misses, 8*5000)
	}
	// Every L1 miss and writeback is exactly one L2 access.
	if l2Acc := l2.Hits.Get() + l2.Misses.Get(); l2Acc != misses+writebacks {
		t.Fatalf("L2 saw %d accesses, want L1 misses %d + writebacks %d", l2Acc, misses, writebacks)
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
		return resident <= l1.NumLines()
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

// A line is 24 bytes (tag, state and child-modified bit share one word), a
// lock stripe with its statistics fills one 64 B host line, and the set
// table holds one 8-byte pointer per set.
func TestLineLayout(t *testing.T) {
	if n := unsafe.Sizeof(line{}); n != 24 {
		t.Fatalf("line is %d bytes, want 24", n)
	}
	if n := unsafe.Sizeof(stripe{}); n != 64 {
		t.Fatalf("stripe is %d bytes, want 64", n)
	}
	var c Cache
	if n := unsafe.Sizeof(c.setArr[0]); n != 8 {
		t.Fatalf("set-table entry is %d bytes, want 8", n)
	}
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

// A Reset hierarchy replays a stream exactly as it ran when fresh.
func TestResetReplaysLikeFresh(t *testing.T) {
	mem := &fakeMem{lat: 100}
	l2 := New(Config{SizeKB: 16, Ways: 4, Latency: 7}, 10, nil)
	l2.SetParent(mem)
	var l1s []*Cache
	for i := 0; i < 2; i++ {
		l1 := New(Config{SizeKB: 2, Ways: 2, Latency: 4}, i, nil)
		l1.SetParent(l2)
		l2.AddChild(l1)
		l1s = append(l1s, l1)
	}
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
	for set, p := range c.setArr {
		if p != nil {
			t.Fatalf("set %d was allocated by a lookup", set)
		}
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
