// Package cache implements the simulated memory hierarchy used by the bound
// phase: set-associative caches with LRU replacement, MESI
// coherence with in-cache directories over inclusive hierarchies, multi-bank
// shared caches, and the per-cache locking scheme that lets the parallel
// bound phase access the shared hierarchy from many host threads at once.
//
// During the bound phase every access is served with zero-load (uncontended)
// latencies, and each level a request touches appends a Hop to the request's
// trace. Package boundweave turns those hop lists into weave-phase events
// that model contention (bank ports, MSHRs, DRAM timing).
//
// Locking follows the paper's discipline for accesses that travel both up
// (fetches, writebacks) and down (invalidations, downgrades) the hierarchy: a
// cache never holds its own lock while calling up into its parent, and only
// takes child locks while handling a downward invalidation. Lock ordering is
// therefore always parent-before-child and the scheme is deadlock-free. The
// only race this admits is the one the paper accepts: two near-simultaneous
// accesses to the same line may be serialized in either order.
//
// Within one cache, locking is striped by set: concurrent accesses to
// different sets of a shared multi-bank cache proceed in parallel, and each
// stripe counts its own statistics under the lock the access already holds,
// so no global lock or atomic serializes the hot path. A cache's set table
// holds one 8-byte pointer per set, and a set's ways are allocated lazily,
// the first time the set is touched, so building a thousand-core chip with
// hundreds of megabytes of simulated cache costs memory only for the sets
// the workload actually uses. Each way packs its tag, MESI state and
// child-modified bit into one word, so a line takes 24 bytes.
package cache

import (
	"fmt"
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
	HopInval                 // this access caused an invalidation in another cache
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
	case HopInval:
		return "inval"
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
	Comp int // global component ID (assigned by the system builder); -1 for network hops
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
// as the request progresses and append to Hops when tracing is enabled. A
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
	// Hops accumulates the levels this request touched; nil disables tracing
	// (set by the bound phase only for accesses it wants weave events for).
	Hops []Hop
	// RecordHops enables appending to Hops.
	RecordHops bool
	// Prof, when non-nil, receives every (line, write) access for the
	// path-altering-interference profiler of Figure 2.
	Prof AccessObserver
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

func (r *Request) addHop(comp int, kind HopKind, cycle uint64, lat uint32) {
	if r.RecordHops {
		r.Hops = append(r.Hops, Hop{Comp: comp, Kind: kind, Line: r.LineAddr, Cycle: cycle, Latency: lat})
	}
}

// addNetHop records a network traversal from topology node src to dst (the
// weave phase expands it along the route into per-router events). Network
// hops carry no component ID; they never mark a trace as weave-retimed by
// themselves (the bank or controller hop that follows does).
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

// line is one cache line's tag, coherence state, directory info and
// replacement metadata in 24 bytes. key packs the tag (the line address),
// the child-modified bit (some child may hold the line modified) and the
// MESI state as tag<<3 | childMod<<2 | state, so a zeroed line is Invalid.
// Line addresses are byte addresses shifted right by 6, at most 58 bits, so
// the shift loses no tag bit.
type line struct {
	key     uint64
	lastUse uint64 // replacement timestamp
	sharers uint64 // bitmask of children holding the line (directory)
}

const (
	keyState    = 3 // key bits holding the MESI state
	keyChildMod = 4 // key bit set when some child may hold the line modified
	keyTagShift = 3
)

func (l *line) state() State   { return State(l.key & keyState) }
func (l *line) tag() uint64    { return l.key >> keyTagShift }
func (l *line) childMod() bool { return l.key&keyChildMod != 0 }

func (l *line) setState(s State) { l.key = l.key&^keyState | uint64(s) }

func (l *line) clearChildMod() { l.key &^= keyChildMod }

// stripe is one lock stripe of a cache: a mutex protecting the sets
// congruent to its index mod nStripes (set&stripeMask), plus the per-stripe
// replacement clock those sets use and the statistics their accesses count.
// A stripe fills one 64 B host cache line, so neighbouring stripes don't
// false-share.
type stripe struct {
	mu    sync.Mutex
	useCt uint64           // replacement clock (compared within one set only)
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
// sharer set is a 64-bit mask.
const MaxChildren = 64

// maxStripes bounds the number of lock stripes per cache.
const maxStripes = 64

// Config describes one cache.
type Config struct {
	SizeKB  int
	Ways    int
	Latency uint32 // zero-load access latency in cycles
	// MSHRs bounds outstanding misses in the weave-phase contention model
	// (the bound phase ignores it).
	MSHRs int
}

// Cache is a single set-associative cache (or one bank of a banked cache).
type Cache struct {
	compID  int
	sets    int
	ways    int
	latency uint32
	mshrs   int

	// setArr[s] points at set s's first way; nil until the set is first
	// touched. Only setWays turns it back into a slice.
	setArr     []*line
	stripes    []stripe
	stripeMask int

	parent   Level
	children []*Cache // for directory-driven invalidations
	childIdx int      // this cache's index within its parent's children

	// Hits and Misses read the two statistics other packages aggregate; the
	// counts themselves live in the stripes.
	Hits, Misses Count
}

// New creates a cache from the config, exporting its statistics under the
// given registry (which may be nil). compID is the global component ID used
// in weave traces. When the registry tree carries a construction arena, the
// cache object, its set table and its lock stripes are carved from that
// arena; the lazily allocated ways come from the heap (see setLines).
func New(cfg Config, compID int, reg *stats.Registry) *Cache {
	ways := cfg.Ways
	if ways < 1 {
		ways = 1
	}
	lines := cfg.SizeKB * 1024 / LineSize
	sets := lines / ways
	if sets < 1 {
		sets = 1
	}
	a := reg.Arena()
	nStripes := 1
	for nStripes*2 <= sets && nStripes < maxStripes {
		nStripes *= 2
	}
	c := arena.One[Cache](a)
	*c = Cache{
		compID:     compID,
		sets:       sets,
		ways:       ways,
		latency:    cfg.Latency,
		mshrs:      cfg.MSHRs,
		setArr:     arena.Take[*line](a, sets),
		stripes:    arena.Take[stripe](a, nStripes),
		stripeMask: nStripes - 1,
	}
	c.Hits, c.Misses = Count{c, sHits}, Count{c, sMisses}
	reg.Record(c)
	return c
}

// Reset restores the cache to its just-constructed state for warm reuse:
// every touched set is cleared back to all-Invalid zero lines (lazily
// allocated way arrays are kept — a zeroed array behaves exactly like the
// nil array a fresh cache starts with), and each stripe's replacement clock
// and statistics are zeroed. Callers must be quiescent (no concurrent
// accesses).
func (c *Cache) Reset() {
	for set := range c.setArr {
		clear(c.setWays(set))
	}
	for i := range c.stripes {
		st := &c.stripes[i]
		st.useCt, st.n = 0, [numStats]uint64{}
	}
}

// Latency returns the cache's zero-load access latency.
func (c *Cache) Latency() uint32 { return c.latency }

// MSHRs returns the configured number of MSHRs (for the weave model).
func (c *Cache) MSHRs() int { return c.mshrs }

// SetParent links the cache to its parent level.
func (c *Cache) SetParent(p Level) { c.parent = p }

// AddChild registers a child cache for directory tracking and returns the
// child's index. Panics if more than MaxChildren children are added;
// config.Validate refuses chips that would need more.
func (c *Cache) AddChild(child *Cache) int {
	if len(c.children) >= MaxChildren {
		panic("cache: more than 64 children per cache are not supported")
	}
	idx := len(c.children)
	c.children = append(c.children, child)
	child.childIdx = idx
	return idx
}

// NumLines returns the cache's capacity in lines.
func (c *Cache) NumLines() int { return c.sets * c.ways }

func (c *Cache) setOf(lineAddr uint64) int {
	// Hash the line address so that strided accesses spread across sets even
	// when the stride is a multiple of the set count (the "hashed" L3 in the
	// validated configuration).
	h := lineAddr * 0x9e3779b97f4a7c15
	return int(h % uint64(c.sets))
}

// stripeOf returns the lock stripe covering the set.
func (c *Cache) stripeOf(set int) *stripe { return &c.stripes[set&c.stripeMask] }

// setWays returns set's ways, or nil if the set was never touched. Caller
// must hold the set's stripe lock (or the cache must be quiescent).
func (c *Cache) setWays(set int) []line {
	p := c.setArr[set]
	if p == nil {
		return nil
	}
	return unsafe.Slice(p, c.ways)
}

// setLines returns set's ways, allocating them on first touch. The lazy
// allocation deliberately uses the heap, not the construction arena: first
// touches happen on the parallel bound phase's hot path, and funneling every
// worker through the arena's shared mutex would serialize warm-up on
// many-core hosts. Caller must hold the set's stripe lock.
func (c *Cache) setLines(set int) []line {
	if c.setArr[set] == nil {
		c.setArr[set] = &make([]line, c.ways)[0]
	}
	return c.setWays(set)
}

// findWay returns the way index of tag in the set's lines, or -1. A nil
// (never-touched) set reports -1. A way matches when its key holds tag and a
// valid state: key^tag<<3 is then below 8 with a nonzero state.
func findWay(lines []line, tag uint64) int {
	want := tag << keyTagShift
	for w := range lines {
		if d := lines[w].key ^ want; d < 1<<keyTagShift && d&keyState != 0 {
			return w
		}
	}
	return -1
}

// victimWay picks a victim way in the set: an invalid way if there is one,
// else the least recently used. Caller must hold the stripe lock.
func victimWay(lines []line) int {
	for w := range lines {
		if lines[w].state() == Invalid {
			return w
		}
	}
	best, bestUse := 0, lines[0].lastUse
	for w := 1; w < len(lines); w++ {
		if lines[w].lastUse < bestUse {
			best, bestUse = w, lines[w].lastUse
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
	if req.Prof != nil {
		// Only the first level observes the access (profiling is about the
		// access stream, not about each hierarchy level).
		req.Prof.ObserveAccess(req.LineAddr, req.Write, req.CoreID, req.Cycle)
		req.Prof = nil
	}

	set := c.setOf(req.LineAddr)
	st := c.stripeOf(set)
	st.mu.Lock()
	st.useCt++
	now := st.useCt
	lines := c.setLines(set)
	way := findWay(lines, req.LineAddr)
	availCycle := req.Cycle + uint64(c.latency)

	if way >= 0 {
		l := &lines[way]
		l.lastUse = now
		if state := l.state(); !req.Write || state == Exclusive || state == Modified {
			// Plain hit.
			if req.Write {
				// Write hit with sufficient permission: invalidate any other
				// children holding the line, then grant Modified.
				if l.sharers != 0 {
					c.invalidateChildrenLocked(req, req.LineAddr, l)
				}
				l.setState(Modified)
				req.FillState = Modified
			} else {
				// Read hit. If another child may hold the line Exclusive or
				// Modified, downgrade it to Shared so the data is coherent,
				// and grant Shared when the line ends up shared by several
				// children.
				otherSharers := l.sharers
				if req.childIdx >= 0 && len(c.children) > 0 {
					otherSharers &^= 1 << uint(req.childIdx)
				}
				if l.childMod() && otherSharers != 0 {
					if c.downgradeChildrenLocked(req, req.LineAddr, otherSharers) {
						l.setState(Modified)
					}
					l.clearChildMod()
				}
				if otherSharers != 0 || l.state() == Shared {
					req.FillState = Shared
				} else {
					req.FillState = Exclusive
				}
			}
			c.markChild(l, req)
			st.n[sHits]++
			st.mu.Unlock()
			req.addHop(c.compID, HopHit, req.Cycle, c.latency)
			return availCycle
		}
		// Write hit on Shared: upgrade through the parent (invalidates other
		// copies system-wide). Treated as a miss for timing purposes.
		l.setState(Invalid) // re-installed below after the parent access
		st.n[sUpgradeMisses]++
		st.n[sMisses]++
		st.mu.Unlock()
		return c.fetchAndInstall(req, set, availCycle, false)
	}

	// Miss: pick a victim and evict it, then fetch from the parent.
	vw := victimWay(lines)
	victim := lines[vw]
	lines[vw].setState(Invalid)
	st.n[sMisses]++
	evict := victim.state() != Invalid
	if evict {
		st.n[sEvictions]++
	}
	st.mu.Unlock()

	wb := evict && c.evictLine(req, victim)
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
	st.useCt++
	if wb {
		st.n[sWritebacks]++
	}
	lines := c.setLines(set)
	way := findWay(lines, req.LineAddr)
	if way < 0 {
		way = victimWay(lines)
		victim := lines[way]
		if victim.state() != Invalid {
			lines[way].setState(Invalid)
			st.n[sEvictions]++
			st.mu.Unlock()
			wb := c.evictLine(req, victim)
			st.mu.Lock()
			st.useCt++
			if wb {
				st.n[sWritebacks]++
			}
			// Re-lookup: the set may have changed while unlocked.
			way = findWay(lines, req.LineAddr)
			if way < 0 {
				way = victimWay(lines)
				lines[way].setState(Invalid)
			}
		}
	}
	if req.Write {
		grant = Modified
	}
	l := &lines[way]
	l.key = req.LineAddr<<keyTagShift | uint64(grant)
	l.lastUse = st.useCt
	l.sharers = 0
	req.FillState = grant
	c.markChild(l, req)
	st.mu.Unlock()
	return fillCycle
}

// markChild records, in the directory, that the requesting child now holds
// the line. For L1 caches (no children), the requester is the core and no
// directory state is needed. Caller must hold the set's stripe lock.
func (c *Cache) markChild(l *line, req *Request) {
	if len(c.children) == 0 {
		return
	}
	if req.childIdx >= 0 && req.childIdx < 64 {
		l.sharers |= 1 << uint(req.childIdx)
		// A child holding the line Exclusive can silently upgrade it to
		// Modified, so both write grants and Exclusive grants mark the line
		// as possibly dirty in a child.
		if req.Write || req.FillState == Exclusive || req.FillState == Modified {
			l.key |= keyChildMod
		}
	}
}

// evictLine handles the eviction of a victim line: invalidate it in children
// (inclusive hierarchy) and write it back to the parent if dirty, reporting
// whether it wrote back. The writeback reuses the in-flight request (mutate,
// forward, restore) instead of allocating a new one. No locks are held on c.
func (c *Cache) evictLine(req *Request, victim line) bool {
	// Invalidate children copies.
	if victim.sharers != 0 {
		dirtyInChild := c.invalidateChildren(victim.tag(), victim.sharers)
		if dirtyInChild {
			victim.setState(Modified)
		}
	}
	if victim.state() != Modified {
		return false
	}
	req.addHop(c.compID, HopWB, req.Cycle, 0)
	if c.parent != nil {
		savedLine, savedWrite := req.LineAddr, req.Write
		savedFill, savedChild := req.FillState, req.childIdx
		req.LineAddr = victim.tag()
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

// invalidateChildrenLocked is used on a write hit to invalidate other
// sharers. Caller holds the set's stripe lock; child locks are acquired
// inside Invalidate (parent-before-child ordering, no deadlock). The
// requester's own copy is preserved by clearing its bit afterwards.
func (c *Cache) invalidateChildrenLocked(req *Request, lineAddr uint64, l *line) {
	sharers := l.sharers
	if req.childIdx >= 0 && len(c.children) > 0 {
		sharers &^= 1 << uint(req.childIdx)
	}
	if sharers == 0 {
		return
	}
	for i, ch := range c.children {
		if sharers&(1<<uint(i)) == 0 {
			continue
		}
		ch.Invalidate(lineAddr)
		req.addHop(ch.compID, HopInval, req.Cycle, 0)
	}
	l.sharers &^= sharers
	l.clearChildMod()
}

// downgradeChildrenLocked downgrades the given children sharers to Shared and
// reports whether any of them held the line modified. Caller holds the set's
// stripe lock.
func (c *Cache) downgradeChildrenLocked(req *Request, lineAddr uint64, sharers uint64) bool {
	dirty := false
	for i, ch := range c.children {
		if sharers&(1<<uint(i)) == 0 {
			continue
		}
		if ch.Downgrade(lineAddr) {
			dirty = true
		}
		req.addHop(ch.compID, HopInval, req.Cycle, 0)
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
	lines := c.setWays(set)
	way := findWay(lines, lineAddr)
	if way < 0 {
		st.mu.Unlock()
		return false
	}
	l := &lines[way]
	dirty := l.state() == Modified
	if dirty || l.state() == Exclusive {
		l.setState(Shared)
	}
	sharers := l.sharers
	childMod := l.childMod()
	l.clearChildMod()
	st.mu.Unlock()

	if childMod && sharers != 0 {
		for i, ch := range c.children {
			if sharers&(1<<uint(i)) == 0 {
				continue
			}
			if ch.Downgrade(lineAddr) {
				dirty = true
			}
		}
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
	lines := c.setWays(set)
	way := findWay(lines, lineAddr)
	if way < 0 {
		st.mu.Unlock()
		return false
	}
	l := lines[way]
	lines[way].setState(Invalid)
	st.n[sInvals]++
	st.mu.Unlock()

	dirty := l.state() == Modified
	if l.sharers != 0 {
		if c.invalidateChildren(lineAddr, l.sharers) {
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
	lines := c.setWays(set)
	way := findWay(lines, lineAddr)
	if way < 0 {
		return Invalid
	}
	return lines[way].state()
}
