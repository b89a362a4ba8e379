// Package cache implements the simulated memory hierarchy used by the bound
// phase: set-associative caches with LRU replacement, MESI
// coherence with in-cache directories over inclusive hierarchies, multi-bank
// shared caches, and the per-cache locking scheme that lets the parallel
// bound phase access the shared hierarchy from many host threads at once.
//
// During the bound phase every access is served with zero-load (uncontended)
// latencies. A traced request records a Hop only where it leaves the private
// levels: at a weave component (a cache built with a component ID, such as
// an L3 bank, or a memory controller) and on the network links the routers
// cross. L1s and L2s, built without one, record nothing, so an access they
// serve leaves an empty trace. Package boundweave turns those hop
// lists into weave-phase events that model contention (bank ports, MSHRs,
// DRAM timing, NoC routers).
//
// Locking follows the paper's discipline for accesses that travel both up
// (fetches, writebacks) and down (invalidations, downgrades) the hierarchy: a
// cache never holds its own lock while calling up into its parent, and only
// takes child locks while handling a downward invalidation. Lock ordering is
// therefore always parent-before-child and the scheme is deadlock-free. It
// admits the race the paper accepts, two near-simultaneous accesses to the
// same line serialized in either order, and one it does not: a miss holds no
// lock between its parent's grant and its own install, so an invalidation or
// downgrade sent in that window finds nothing and the fill then installs an
// untracked copy (one cache may hold a line Exclusive or Modified while
// another still holds it). Even serially, a write upgrade at a level with
// several children re-installs the line with the requester as its only
// sharer and leaves the other children's Shared copies in place, so a shared
// tile L2 does not always include its L1s.
//
// Within one cache, locking is striped by set: concurrent accesses to
// different sets of a shared multi-bank cache proceed in parallel, and each
// stripe counts its own statistics under the lock the access already holds,
// so no global lock or atomic serializes the hot path. A private cache, one
// that only one core's requests reach (Config.Private), takes one stripe,
// which holds all its counts: only coherence actions from other cores
// contend with its owner for it. A cache's set table holds one pointer-free
// 4-byte slot per set, 0 until the set is first touched. On first touch the
// set takes its block from its chip's line slab, pointer-free chunks of
// 8-byte words one chip shares, through the bound worker's own cursor, so
// building a thousand-core chip with hundreds of megabytes of simulated
// cache costs 4 bytes per set plus blocks only for the sets the workload
// actually uses, and the GC scans none of it. A block holds the set's ways
// as arrays: first one 8-byte key per way (its tag, MESI state and
// child-modified bit), then, only in a cache with children, one sharer mask
// per way (1, 2, 4 or 8 bytes for up to 8, 16, 32 or 64 children), then,
// from the next 4-byte boundary, one 4-byte LRU stamp per way. A way thus
// takes 12 bytes in an L1 and 13 to 20 in a cache with children: 13 in the
// Westmere L2 and L3, with 2 and 6 children. A stripe's 32-bit clock that
// would wrap first rewrites its sets' stamps to their rank within each
// set. A dirty bitmap, one bit per set, marks the sets touched since the
// last Reset, so Reset costs O(sets/64 + sets touched since the last
// Reset) rather than a visit to every set.
package cache

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"
	"unsafe"

	"zsim/internal/arena"
	"zsim/internal/stats"
)

// LineSize is the cache line size in bytes (64 B, as in the validated
// Westmere configuration).
const LineSize = 64

// LineAddr converts a byte address to a line address.
func LineAddr(addr uint64) uint64 { return addr >> 6 }

// State is a MESI coherence state.
type State uint8

// MESI states.
const (
	Invalid State = iota
	Shared
	Exclusive
	Modified
)

// String returns the one-letter MESI name.
func (s State) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Exclusive:
		return "E"
	case Modified:
		return "M"
	default:
		return fmt.Sprintf("?%d", uint8(s))
	}
}

// HopKind classifies an entry in a request's hierarchy trace.
type HopKind uint8

// Hop kinds recorded during bound-phase accesses.
const (
	HopHit    HopKind = iota // request hit at this level
	HopMiss                  // request missed at this level and continued up
	HopMem                   // request was served by a memory controller
	HopWB                    // a dirty eviction generated a writeback at this level
	HopNet                   // the request crossed the NoC from node Src to node Dst
	HopNetMem                // the request crossed node Src's memory-egress link
)

// String returns a short name for the hop kind.
func (k HopKind) String() string {
	switch k {
	case HopHit:
		return "hit"
	case HopMiss:
		return "miss"
	case HopMem:
		return "mem"
	case HopWB:
		return "wback"
	case HopNet:
		return "net"
	case HopNetMem:
		return "netmem"
	default:
		return fmt.Sprintf("hop(%d)", uint8(k))
	}
}

// Hop records one level's handling of a request; the weave phase turns hops
// into events with the component's contention model.
type Hop struct {
	Comp int // weave component ID of the bank or controller (assigned by the system builder); -1 for network hops
	Kind HopKind
	// Src and Dst are the topology nodes of a network hop (HopNet: the full
	// route from Src to Dst; HopNetMem: Src's memory-egress link). They are
	// meaningless for other kinds.
	Src, Dst int16
	Line     uint64 // line address of the access (used by DRAM bank mapping)
	Cycle    uint64 // zero-load cycle at which this level starts handling the request
	Latency  uint32 // zero-load latency contributed by this level
}

// Request is a memory access travelling up the hierarchy. Levels mutate Cycle
// as the request progresses, and weave components and network links append
// to Hops when tracing is enabled. A
// single Request value travels the whole hierarchy: levels that forward it
// upward (for fetches and writebacks) mutate it in place and restore their
// caller's fields afterwards, so a full miss path performs no allocation.
// Cores keep one reusable Request per core and one recycled hop buffer, which
// makes the steady-state access path allocation-free.
type Request struct {
	LineAddr uint64
	Write    bool
	CoreID   int    // issuing core, used for profiling and network routing
	Cycle    uint64 // cycle the request arrives at the level being accessed
	// Hops accumulates the weave components and network links this request
	// touched, when RecordHops is set (by the bound phase, which builds weave
	// events from them).
	Hops []Hop
	// RecordHops enables appending to Hops.
	RecordHops bool
	// Lines is the line-slab cursor of the bound worker issuing the request:
	// a set the request touches first takes its ways from it. Requests
	// without one (issued outside the bound phase) share the slab's cursor.
	Lines *LineCursor
	// FillState is set by the serving level to tell the requester which MESI
	// state to install the line in (Shared when other children also hold the
	// line, Exclusive/Modified otherwise). Terminal levels (memory) leave it
	// untouched; callers initialize it to Exclusive before forwarding.
	FillState State
	// childIdx is the directory index of the child cache that issued this
	// request into its parent; it is set by the child when forwarding a miss
	// upward and is meaningless for core-issued requests into L1s.
	childIdx int
}

// addHop records a hop at the component comp. A cache that is not a weave
// component (comp < 0) records nothing.
func (r *Request) addHop(comp int, kind HopKind, cycle uint64, lat uint32) {
	if r.RecordHops && comp >= 0 {
		r.Hops = append(r.Hops, Hop{Comp: comp, Kind: kind, Line: r.LineAddr, Cycle: cycle, Latency: lat})
	}
}

// addNetHop records a network traversal from topology node src to dst (the
// weave phase expands it along the route into per-router events). Network
// hops carry no component ID: the weave phase finds the routers from their
// topology nodes.
func (r *Request) addNetHop(kind HopKind, src, dst int, cycle uint64, lat uint32) {
	if r.RecordHops {
		r.Hops = append(r.Hops, Hop{Comp: -1, Kind: kind, Src: int16(src), Dst: int16(dst),
			Line: r.LineAddr, Cycle: cycle, Latency: lat})
	}
}

// AccessObserver observes line-granularity accesses (used by the interference
// profiler and by tests).
type AccessObserver interface {
	ObserveAccess(lineAddr uint64, write bool, coreID int, cycle uint64)
}

// Level is anything that can serve a request from below: a cache, a banked
// cache router, or a memory controller.
type Level interface {
	// Access serves the request and returns the cycle at which the requested
	// line is available at the requester, assuming zero load.
	Access(req *Request) uint64
}

// A way's key packs its tag (the line address), the child-modified bit (some
// child may hold the line modified) and its MESI state as
// tag<<3 | childMod<<2 | state, so a zeroed key is Invalid. Line addresses
// are byte addresses shifted right by 6, at most 58 bits, so the shift loses
// no tag bit.
const (
	keyState    = 3 // key bits holding the MESI state
	keyChildMod = 4 // key bit set when some child may hold the line modified
	keyTagShift = 3
)

func stateOf(key uint64) State { return State(key & keyState) }
func tagOf(key uint64) uint64  { return key >> keyTagShift }

func setState(key *uint64, s State) { *key = *key&^keyState | uint64(s) }

// maxStamp is the last value of a stripe's 32-bit replacement clock; the
// tick that would pass it restamps the stripe's sets first (Cache.restamp).
const maxStamp = math.MaxUint32

// stripe is one lock stripe of a cache: a mutex protecting the sets
// congruent to its index mod nStripes (set&stripeMask), plus the per-stripe
// replacement clock those sets use and the statistics their accesses count.
// A stripe fills one 64 B host cache line, so neighbouring stripes don't
// false-share.
type stripe struct {
	mu    sync.Mutex
	useCt uint32           // replacement clock (compared within one set only)
	n     [numStats]uint64 // statistics, indexed by sHits...
}

// Statistics a cache counts, as indices into stripe.n.
const (
	sHits = iota
	sMisses
	sEvictions
	sWritebacks
	sInvals
	sUpgradeMisses
	numStats
)

// Count is one of a cache's statistics, counted per lock stripe.
type Count struct {
	c *Cache
	i int
}

// Get returns the statistic summed over the cache's stripes. The cache must
// be quiescent.
func (n Count) Get() uint64 { return n.c.count(n.i) }

func (c *Cache) count(i int) uint64 {
	var v uint64
	for s := range c.stripes {
		v += c.stripes[s].n[i]
	}
	return v
}

// VisitStats reports the cache's statistics in export order (stats.Source).
// The cache must be quiescent.
func (c *Cache) VisitStats(f func(name, desc string, v uint64)) {
	f("hits", "accesses that hit", c.count(sHits))
	f("misses", "accesses that missed", c.count(sMisses))
	f("evictions", "lines evicted", c.count(sEvictions))
	f("writebacks", "dirty lines written back", c.count(sWritebacks))
	f("invalidations", "lines invalidated by coherence", c.count(sInvals))
	f("upgradeMisses", "write hits to Shared lines requiring upgrade", c.count(sUpgradeMisses))
}

// MaxChildren is the number of children a cache's directory can track: its
// widest sharer mask has 64 bits.
const MaxChildren = 64

// maxStripes bounds the number of lock stripes per cache.
const maxStripes = 64

// Config describes one cache.
type Config struct {
	SizeKB  int
	Ways    int
	Latency uint32 // zero-load access latency in cycles
	// Private marks a cache that only one core's requests reach; it takes
	// one lock stripe instead of one per set (up to maxStripes).
	Private bool
}

// geometry returns the number of sets a cache built from the config has
// (the length of its slot table), its number of lock stripes, and the words
// of dirty bitmap each stripe owns.
func (cfg Config) geometry() (sets, stripes, dirtyWords int) {
	sets = max(cfg.SizeKB*1024/LineSize/max(cfg.Ways, 1), 1)
	stripes = 1
	for !cfg.Private && stripes*2 <= sets && stripes < maxStripes {
		stripes *= 2
	}
	return sets, stripes, ((sets+stripes-1)/stripes + 63) / 64
}

// Reserve readies the arena a for the caches a chip is about to build on it,
// counts[i] of them from cfgs[i]: the cache objects, their slot tables,
// lock stripes and dirty bitmaps each come from one exactly sized chunk.
func Reserve(a *arena.Arena, cfgs []Config, counts []int) {
	var caches, slots, stripes, dirty int
	for i, cfg := range cfgs {
		sets, nStripes, dirtyWords := cfg.geometry()
		caches += counts[i]
		slots += counts[i] * sets
		stripes += counts[i] * nStripes
		dirty += counts[i] * nStripes * dirtyWords
	}
	arena.Reserve[Cache](a, caches)
	arena.Reserve[uint32](a, slots)
	arena.Reserve[stripe](a, stripes)
	arena.Reserve[uint64](a, dirty)
}

// Cache is a single set-associative cache (or one bank of a banked cache).
type Cache struct {
	compID  int
	sets    int
	ways    int
	latency uint32

	// A touched set's block in the slab holds its ways' keys (8 bytes
	// each), then, only when the cache has children, their sharer masks
	// (maskBytes each: the smallest of 1, 2, 4 or 8 that holds a bit per
	// child), then their LRU stamps (4 bytes each, from the next 4-byte
	// boundary), blockWords 8-byte words in all; stampOff is the stamps'
	// byte offset. AddChild sets the layout, and the chip's first access
	// fixes it.
	blockWords uint32
	stampOff   uint32
	maskBytes  uint8
	// stripeShift is log2 of the stripe count (see dirty).
	stripeShift uint8

	// slots[s] names set s's block in slab; 0 until the set is first
	// touched. Only blockOf turns a slot into a pointer.
	slots      []uint32
	slab       *lineSlab
	stripes    []stripe
	stripeMask int
	// dirty has one bit per set, set when the set is first touched (it takes
	// a slot) and cleared by Reset. Stripe s owns words [s*dirtyWords,
	// (s+1)*dirtyWords) and its sets in order (set>>stripeShift), so a word is
	// only written under one stripe's lock.
	dirty      []uint64
	dirtyWords int

	parent   Level
	children []*Cache // for directory-driven invalidations
	childIdx int      // this cache's index within its parent's children

	// Hits and Misses read the two statistics other packages aggregate; the
	// counts themselves live in the stripes.
	Hits, Misses Count
}

// New creates a cache from the config, exporting its statistics under the
// given registry (which may be nil). compID is the cache's weave component
// ID, which its hops carry, or -1 for a cache that is not a weave component
// (an L1 or L2), which records no hops. When the registry tree carries a construction arena, the
// cache object, its slot table and its lock stripes are carved from that
// arena, and its set blocks come from the line slab hung off it, which
// every cache built on the arena shares; a cache built without one gets a
// slab of its own.
func New(cfg Config, compID int, reg *stats.Registry) *Cache {
	ways := max(cfg.Ways, 1)
	sets, nStripes, dirtyWords := cfg.geometry()
	a := reg.Arena()
	shift := bits.TrailingZeros(uint(nStripes))
	c := arena.One[Cache](a)
	*c = Cache{
		compID:      compID,
		sets:        sets,
		ways:        ways,
		latency:     cfg.Latency,
		slots:       arena.Take[uint32](a, sets),
		slab:        slabOf(a),
		stripes:     arena.Take[stripe](a, nStripes),
		stripeMask:  nStripes - 1,
		dirty:       arena.Take[uint64](a, nStripes*dirtyWords),
		dirtyWords:  dirtyWords,
		stripeShift: uint8(shift),
	}
	c.layout()
	c.slab.addBlocks(sets*ways, sets, int(c.blockWords), int(c.blockWords))
	c.Hits, c.Misses = Count{c, sHits}, Count{c, sMisses}
	reg.Record(c)
	return c
}

// layout sets the block layout for the cache's current children.
func (c *Cache) layout() {
	switch n := len(c.children); {
	case n == 0:
		c.maskBytes = 0
	case n <= 8:
		c.maskBytes = 1
	case n <= 16:
		c.maskBytes = 2
	case n <= 32:
		c.maskBytes = 4
	default:
		c.maskBytes = 8
	}
	ways := uint32(c.ways)
	// 1- and 2-byte masks of an odd number of ways end off a 4-byte
	// boundary: round up, so the stamps stay aligned for their uint32 view.
	c.stampOff = (ways*(8+uint32(c.maskBytes)) + 3) &^ 3
	c.blockWords = (c.stampOff + 4*ways + 7) / 8
}

// Reset restores the cache to its just-constructed state for warm reuse:
// every set touched since the last Reset (each one holding a slot has its
// dirty bit) has its block cleared back to all-Invalid zero ways and its
// slot zeroed, the dirty bitmap is zeroed, the line slab is rewound (its
// chunks are kept, for the next run to take again), and each stripe's
// replacement clock and statistics are zeroed. The slab is the chip's: every
// cache built on the same arena must be Reset before any of them is used
// again. Callers must be quiescent (no concurrent accesses).
func (c *Cache) Reset() {
	for w, word := range c.dirty {
		if word == 0 {
			continue
		}
		s, base := w/c.dirtyWords, w%c.dirtyWords*64
		for ; word != 0; word &= word - 1 {
			set := (base+bits.TrailingZeros64(word))<<c.stripeShift | s
			clear(unsafe.Slice((*uint64)(c.blockOf(set)), c.blockWords))
			c.slots[set] = 0
		}
		c.dirty[w] = 0
	}
	c.slab.rewind()
	for i := range c.stripes {
		st := &c.stripes[i]
		st.useCt, st.n = 0, [numStats]uint64{}
	}
}

// Latency returns the cache's zero-load access latency.
func (c *Cache) Latency() uint32 { return c.latency }

// SetParent links the cache to its parent level.
func (c *Cache) SetParent(p Level) { c.parent = p }

// AddChild registers a child cache for directory tracking and returns the
// child's index. Panics if more than MaxChildren children are added
// (config.Validate refuses chips that would need more), and once the chip
// has served its first access: the children fix the cache's block layout.
func (c *Cache) AddChild(child *Cache) int {
	if len(c.children) >= MaxChildren {
		panic("cache: more than 64 children per cache are not supported")
	}
	idx := len(c.children)
	c.children = append(c.children, child)
	child.childIdx = idx
	old := c.blockWords
	c.layout()
	// Construction is single-threaded, so started reads the slab unlocked;
	// the slab is told only of a block that grew (at the 1st, 9th, 17th and
	// 33rd child), and panics once the chip has served an access.
	if c.blockWords != old || c.slab.started() {
		c.slab.addBlocks(0, c.sets, int(c.blockWords-old), int(c.blockWords))
	}
	return idx
}

func (c *Cache) setOf(lineAddr uint64) int {
	// Hash the line address so that strided accesses spread across sets even
	// when the stride is a multiple of the set count (the "hashed" L3 in the
	// validated configuration).
	h := lineAddr * 0x9e3779b97f4a7c15
	return int(h % uint64(c.sets))
}

// stripeOf returns the lock stripe covering the set.
func (c *Cache) stripeOf(set int) *stripe { return &c.stripes[set&c.stripeMask] }

// blockOf returns set's block, or nil if the set was never touched. Caller
// must hold the set's stripe lock (or the cache must be quiescent).
func (c *Cache) blockOf(set int) unsafe.Pointer {
	slot := c.slots[set]
	if slot == 0 {
		return nil
	}
	s := c.slab
	return unsafe.Add(unsafe.Pointer(s.chunks[slot>>s.shift]), uintptr(slot&(1<<s.shift-1))*8)
}

// keys returns the ways' keys of block b, nil for an untouched set.
func (c *Cache) keys(b unsafe.Pointer) []uint64 {
	if b == nil {
		return nil
	}
	return unsafe.Slice((*uint64)(b), c.ways)
}

// stamps returns the ways' LRU stamps of block b, which must not be nil.
func (c *Cache) stamps(b unsafe.Pointer) []uint32 {
	return unsafe.Slice((*uint32)(unsafe.Add(b, c.stampOff)), c.ways)
}

// sharers returns way w's sharer mask in block b: the children that may
// hold the line, always 0 in a cache without children.
func (c *Cache) sharers(b unsafe.Pointer, w int) uint64 {
	p := unsafe.Add(b, uintptr(c.ways)*8+uintptr(w)*uintptr(c.maskBytes))
	switch c.maskBytes {
	case 1:
		return uint64(*(*uint8)(p))
	case 2:
		return uint64(*(*uint16)(p))
	case 4:
		return uint64(*(*uint32)(p))
	case 8:
		return *(*uint64)(p)
	}
	return 0
}

// setSharers sets way w's sharer mask in block b. In a cache without
// children the mask must be 0, and nothing is stored.
func (c *Cache) setSharers(b unsafe.Pointer, w int, m uint64) {
	p := unsafe.Add(b, uintptr(c.ways)*8+uintptr(w)*uintptr(c.maskBytes))
	switch c.maskBytes {
	case 1:
		*(*uint8)(p) = uint8(m)
	case 2:
		*(*uint16)(p) = uint16(m)
	case 4:
		*(*uint32)(p) = uint32(m)
	case 8:
		*(*uint64)(p) = m
	}
}

// touch gives an untouched set its block, taken from the line slab through
// cur, marks the set dirty and returns the block. Caller must hold the
// set's stripe lock.
func (c *Cache) touch(set int, cur *LineCursor) unsafe.Pointer {
	c.slots[set] = c.slab.take(cur, int(c.blockWords))
	i := set >> c.stripeShift
	c.dirty[(set&c.stripeMask)*c.dirtyWords+i/64] |= 1 << (i % 64)
	return c.blockOf(set)
}

// tick advances the set's stripe clock and returns it. Caller holds the
// stripe lock.
func (c *Cache) tick(st *stripe, set int) uint32 {
	if st.useCt == maxStamp {
		c.restamp(set)
	}
	st.useCt++
	return st.useCt
}

// restamp makes room in the 32-bit clock of set's stripe: every touched set
// of the stripe (found from the stripe's dirty-bitmap words) has its stamps
// rewritten to their rank order within the set, and the clock restarts at
// the largest rank. Stamps only compare within one set, and a set's valid
// ways hold distinct stamps, so every victim choice stays the same. Caller
// holds the stripe lock.
func (c *Cache) restamp(set int) {
	s := set & c.stripeMask
	order := make([]int, c.ways)
	for w := s * c.dirtyWords; w < (s+1)*c.dirtyWords; w++ {
		base := w % c.dirtyWords * 64
		for word := c.dirty[w]; word != 0; word &= word - 1 {
			stamps := c.stamps(c.blockOf((base+bits.TrailingZeros64(word))<<c.stripeShift | s))
			for i := range order {
				order[i] = i
			}
			slices.SortFunc(order, func(a, b int) int { return cmp.Compare(stamps[a], stamps[b]) })
			for rank, way := range order {
				stamps[way] = uint32(rank + 1)
			}
		}
	}
	c.stripes[s].useCt = uint32(c.ways)
}

// findWay returns the way index of tag in a set's keys, or -1. A nil
// (never-touched) set reports -1. A way matches when its key holds tag and a
// valid state: key^tag<<3 is then below 8 with a nonzero state.
func findWay(keys []uint64, tag uint64) int {
	want := tag << keyTagShift
	for w, k := range keys {
		if d := k ^ want; d < 1<<keyTagShift && d&keyState != 0 {
			return w
		}
	}
	return -1
}

// victimWay picks a victim way in the set: an invalid way if there is one,
// else the least recently used. Caller must hold the stripe lock.
func victimWay(keys []uint64, stamps []uint32) int {
	for w, k := range keys {
		if stateOf(k) == Invalid {
			return w
		}
	}
	best, bestUse := 0, stamps[0]
	for w := 1; w < len(stamps); w++ {
		if stamps[w] < bestUse {
			best, bestUse = w, stamps[w]
		}
	}
	return best
}

// Access serves a request from a child (or from a core, for L1s).
//
// The protocol is inclusive MESI: a hit with sufficient permissions is served
// locally; a write hit on a Shared line upgrades via the parent; a miss
// evicts a victim (invalidating it in children and writing it back if dirty)
// and fetches the line from the parent. Directory state tracks which children
// hold the line so writes can invalidate other sharers.
func (c *Cache) Access(req *Request) uint64 {
	set := c.setOf(req.LineAddr)
	st := c.stripeOf(set)
	st.mu.Lock()
	now := c.tick(st, set)
	b := c.blockOf(set)
	if b == nil {
		b = c.touch(set, req.Lines)
	}
	keys := c.keys(b)
	way := findWay(keys, req.LineAddr)
	availCycle := req.Cycle + uint64(c.latency)

	if way >= 0 {
		key := &keys[way]
		c.stamps(b)[way] = now
		if state := stateOf(*key); !req.Write || state == Exclusive || state == Modified {
			// Plain hit.
			sharers := c.sharers(b, way)
			if req.Write {
				// Write hit with sufficient permission: invalidate any other
				// children holding the line, then grant Modified.
				if sharers != 0 {
					c.invalidateChildrenLocked(req, b, way)
				}
				setState(key, Modified)
				req.FillState = Modified
			} else {
				// Read hit. If another child may hold the line Exclusive or
				// Modified, downgrade it to Shared so the data is coherent,
				// and grant Shared when the line ends up shared by several
				// children.
				otherSharers := sharers
				if req.childIdx >= 0 && len(c.children) > 0 {
					otherSharers &^= 1 << uint(req.childIdx)
				}
				if *key&keyChildMod != 0 && otherSharers != 0 {
					if c.downgradeChildren(req.LineAddr, otherSharers) {
						setState(key, Modified)
					}
					*key &^= keyChildMod
				}
				if otherSharers != 0 || stateOf(*key) == Shared {
					req.FillState = Shared
				} else {
					req.FillState = Exclusive
				}
			}
			c.markChild(b, way, req)
			st.n[sHits]++
			st.mu.Unlock()
			req.addHop(c.compID, HopHit, req.Cycle, c.latency)
			return availCycle
		}
		// Write hit on Shared: upgrade through the parent (invalidates other
		// copies system-wide). Treated as a miss for timing purposes.
		setState(key, Invalid) // re-installed below after the parent access
		st.n[sUpgradeMisses]++
		st.n[sMisses]++
		st.mu.Unlock()
		return c.fetchAndInstall(req, set, availCycle, false)
	}

	// Miss: pick a victim and evict it, then fetch from the parent.
	vw := victimWay(keys, c.stamps(b))
	victim, victimSharers := keys[vw], c.sharers(b, vw)
	setState(&keys[vw], Invalid)
	st.n[sMisses]++
	evict := stateOf(victim) != Invalid
	if evict {
		st.n[sEvictions]++
	}
	st.mu.Unlock()

	wb := evict && c.evictLine(req, victim, victimSharers)
	return c.fetchAndInstall(req, set, availCycle, wb)
}

// fetchAndInstall completes a miss on set, the request line's set as Access
// computed it: it forwards the request to the parent (without holding any of
// our locks), then installs the line. It returns the zero-load cycle at
// which the line is available to the requester. The request is forwarded in
// place — the parent mutates it — and the caller-side fields are restored
// afterwards, so the miss path allocates nothing. wb reports that the
// caller's eviction from set wrote back; it is counted under the install's
// stripe lock.
func (c *Cache) fetchAndInstall(req *Request, set int, localAvail uint64, wb bool) uint64 {
	req.addHop(c.compID, HopMiss, req.Cycle, c.latency)
	var fillCycle uint64
	grant := Exclusive
	if c.parent != nil {
		savedCycle, savedChild := req.Cycle, req.childIdx
		req.Cycle = localAvail // request leaves this level after its lookup latency
		req.childIdx = c.childIdx
		req.FillState = Exclusive
		fillCycle = c.parent.Access(req)
		grant = req.FillState
		req.Cycle, req.childIdx = savedCycle, savedChild
	} else {
		// No parent: act as if backed by an ideal memory with no extra delay.
		fillCycle = localAvail
	}

	// Install the line.
	st := c.stripeOf(set)
	st.mu.Lock()
	now := c.tick(st, set)
	if wb {
		st.n[sWritebacks]++
	}
	b := c.blockOf(set) // Access touched the set
	keys := c.keys(b)
	way := findWay(keys, req.LineAddr)
	if way < 0 {
		way = victimWay(keys, c.stamps(b))
		if victim := keys[way]; stateOf(victim) != Invalid {
			victimSharers := c.sharers(b, way)
			setState(&keys[way], Invalid)
			st.n[sEvictions]++
			st.mu.Unlock()
			wb := c.evictLine(req, victim, victimSharers)
			st.mu.Lock()
			now = c.tick(st, set)
			if wb {
				st.n[sWritebacks]++
			}
			// Re-lookup: the set may have changed while unlocked.
			way = findWay(keys, req.LineAddr)
			if way < 0 {
				way = victimWay(keys, c.stamps(b))
				setState(&keys[way], Invalid)
			}
		}
	}
	if req.Write {
		grant = Modified
	}
	keys[way] = req.LineAddr<<keyTagShift | uint64(grant)
	c.stamps(b)[way] = now
	c.setSharers(b, way, 0)
	req.FillState = grant
	c.markChild(b, way, req)
	st.mu.Unlock()
	return fillCycle
}

// markChild records, in the directory, that the requesting child now holds
// way w of block b. For L1 caches (no children), the requester is the core
// and no directory state is needed. Caller must hold the set's stripe lock.
func (c *Cache) markChild(b unsafe.Pointer, w int, req *Request) {
	if len(c.children) == 0 {
		return
	}
	if req.childIdx >= 0 && req.childIdx < MaxChildren {
		c.setSharers(b, w, c.sharers(b, w)|1<<uint(req.childIdx))
		// A child holding the line Exclusive can silently upgrade it to
		// Modified, so both write grants and Exclusive grants mark the line
		// as possibly dirty in a child.
		if req.Write || req.FillState == Exclusive || req.FillState == Modified {
			c.keys(b)[w] |= keyChildMod
		}
	}
}

// evictLine handles the eviction of a victim line, given its key and sharer
// mask: invalidate it in children (inclusive hierarchy) and write it back
// to the parent if dirty, reporting whether it wrote back. The writeback
// reuses the in-flight request (mutate, forward, restore) instead of
// allocating a new one. No locks are held on c.
func (c *Cache) evictLine(req *Request, victim, sharers uint64) bool {
	// Invalidate children copies.
	if sharers != 0 {
		dirtyInChild := c.invalidateChildren(tagOf(victim), sharers)
		if dirtyInChild {
			setState(&victim, Modified)
		}
	}
	if stateOf(victim) != Modified {
		return false
	}
	req.addHop(c.compID, HopWB, req.Cycle, 0)
	if c.parent != nil {
		savedLine, savedWrite := req.LineAddr, req.Write
		savedFill, savedChild := req.FillState, req.childIdx
		req.LineAddr = tagOf(victim)
		req.Write = true
		req.childIdx = c.childIdx
		c.parent.Access(req)
		req.LineAddr, req.Write = savedLine, savedWrite
		req.FillState, req.childIdx = savedFill, savedChild
	}
	return true
}

// invalidateChildren invalidates the line in every child in the sharer mask
// and reports whether any child held it modified. No locks are held on c.
func (c *Cache) invalidateChildren(lineAddr uint64, sharers uint64) bool {
	dirty := false
	for i, ch := range c.children {
		if sharers&(1<<uint(i)) == 0 {
			continue
		}
		if ch.Invalidate(lineAddr) {
			dirty = true
		}
	}
	return dirty
}

// invalidateChildrenLocked is used on a write hit to invalidate the request
// line's other sharers, way w of block b. Caller holds the set's stripe lock; child
// locks are acquired inside Invalidate (parent-before-child ordering, no
// deadlock). The requester's own copy is preserved by clearing its bit
// afterwards.
func (c *Cache) invalidateChildrenLocked(req *Request, b unsafe.Pointer, w int) {
	sharers := c.sharers(b, w)
	if req.childIdx >= 0 && len(c.children) > 0 {
		sharers &^= 1 << uint(req.childIdx)
	}
	if sharers == 0 {
		return
	}
	c.invalidateChildren(req.LineAddr, sharers)
	c.setSharers(b, w, c.sharers(b, w)&^sharers)
	c.keys(b)[w] &^= keyChildMod
}

// downgradeChildren downgrades the line to Shared in every child in the
// sharer mask and reports whether any of them held it modified.
func (c *Cache) downgradeChildren(lineAddr uint64, sharers uint64) bool {
	dirty := false
	for i, ch := range c.children {
		if sharers&(1<<uint(i)) == 0 {
			continue
		}
		if ch.Downgrade(lineAddr) {
			dirty = true
		}
	}
	return dirty
}

// Downgrade demotes the line to Shared in this cache and its children,
// returning true if any copy was Modified (i.e., a writeback of fresh data is
// implied).
func (c *Cache) Downgrade(lineAddr uint64) bool {
	set := c.setOf(lineAddr)
	st := c.stripeOf(set)
	st.mu.Lock()
	b := c.blockOf(set)
	keys := c.keys(b)
	way := findWay(keys, lineAddr)
	if way < 0 {
		st.mu.Unlock()
		return false
	}
	key := &keys[way]
	dirty := stateOf(*key) == Modified
	if dirty || stateOf(*key) == Exclusive {
		setState(key, Shared)
	}
	sharers := c.sharers(b, way)
	childMod := *key&keyChildMod != 0
	*key &^= keyChildMod
	st.mu.Unlock()

	if childMod && sharers != 0 && c.downgradeChildren(lineAddr, sharers) {
		dirty = true
	}
	return dirty
}

// Invalidate removes the line from this cache (and, recursively, from its
// children), returning true if the line (or any child copy) was modified.
// It is the downward path of the coherence protocol.
func (c *Cache) Invalidate(lineAddr uint64) bool {
	set := c.setOf(lineAddr)
	st := c.stripeOf(set)
	st.mu.Lock()
	b := c.blockOf(set)
	keys := c.keys(b)
	way := findWay(keys, lineAddr)
	if way < 0 {
		st.mu.Unlock()
		return false
	}
	key, sharers := keys[way], c.sharers(b, way)
	setState(&keys[way], Invalid)
	st.n[sInvals]++
	st.mu.Unlock()

	dirty := stateOf(key) == Modified
	if sharers != 0 {
		if c.invalidateChildren(lineAddr, sharers) {
			dirty = true
		}
	}
	return dirty
}

// StateOf returns the MESI state of the line (Invalid if absent).
func (c *Cache) StateOf(lineAddr uint64) State {
	set := c.setOf(lineAddr)
	st := c.stripeOf(set)
	st.mu.Lock()
	defer st.mu.Unlock()
	keys := c.keys(c.blockOf(set))
	way := findWay(keys, lineAddr)
	if way < 0 {
		return Invalid
	}
	return stateOf(keys[way])
}
