// Package event implements the weave-phase event-driven simulation framework
// described in Section 3.2.2 of the paper.
//
// The bound phase records, per core, a trace of the microarchitectural events
// each memory access generates beyond the private cache levels (L3 bank
// accesses, NoC router traversals, memory controller reads, writebacks). The
// weave phase replays those events in full order to model contention. Every
// event carries a lower bound on its execution cycle (established by the
// zero-load bound phase), its parents (events that must finish first) and its
// children.
//
// # One executor
//
// An Engine runs every interval on the caller from a single binary min-heap
// ordered by (dispatch cycle, sequence number). When Run starts, every event
// of the interval — not just the chain roots — is already in the heap, keyed
// at its bound-phase lower bound (MinCycle). Contention can only delay an
// event, so keys only ever rise, and the head is popped only once its key is
// final:
//
//   - a head with no pending parents whose ready cycle (latest parent finish
//     plus Delay, at least MinCycle) is at or below its key executes at its
//     key;
//   - a head with no pending parents and a later ready cycle is re-keyed to
//     that ready cycle;
//   - a head with unfinished parents is re-keyed to the largest of its ready
//     cycle and each unfinished parent's key plus Delay. A parent is always
//     created before its child (parent.Seq() < child.Seq()), so an unfinished
//     parent keyed at the head's cycle would sort before the head: every
//     unfinished parent is keyed strictly above it and the raise always makes
//     progress.
//
// Each component therefore executes its events in (final dispatch cycle,
// sequence) order, a pure function of the bound phase. Sequence numbers come
// from the per-core slabs, so a tie never depends on which event became ready
// first. The paper runs the weave phase as parallel domains; DESIGN.md "Weave
// executor" records why this reproduction runs one heap instead.
package event

import (
	"slices"

	"zsim/internal/arena"
)

// maxCycle saturates a key raise that would overflow.
const maxCycle = ^uint64(0)

// Executor is the contention-model callback attached to an event: it receives
// the event itself (whose Ctx/Arg/Flag fields carry the model context) and
// the cycle at which the event is dispatched, and returns the cycle at which
// the event finishes (>= the dispatch cycle). Executors are typically shared
// package-level functions rather than per-event closures, so that building an
// interval's event graph allocates nothing.
type Executor func(ev *Event, dispatchCycle uint64) (finishCycle uint64)

// Event is one weave-phase event: an access hitting a component, a memory
// read, a writeback, or a core-side marker. Events are created during the
// bound phase (through a Slab) with their dependencies fully specified.
type Event struct {
	// Comp is the global component ID the event operates on.
	Comp int
	// MinCycle is the lower bound on the event's execution cycle, established
	// by the zero-load bound phase.
	MinCycle uint64
	// Exec computes the event's finish cycle given its dispatch cycle. A nil
	// Exec means the event finishes instantly at its dispatch cycle.
	Exec Executor
	// Ctx carries the executor's context (e.g. a *BankModel or a memory
	// contention model). Storing a pointer in an interface does not allocate,
	// so a shared Executor plus Ctx/Arg/Flag replaces a per-event closure.
	Ctx any
	// Arg is an executor-defined scalar (e.g. the access's line address).
	Arg uint64
	// Flag is an executor-defined boolean (e.g. miss-vs-hit or write-vs-read).
	Flag bool

	// Delay is the fixed parent-to-child delay: the event cannot be
	// dispatched before parentFinish + Delay (for each parent).
	Delay uint64

	children []*Event
	parents  []*Event

	// Mutable simulation state.
	pendingParents int32
	readyCycle     uint64 // max over finished parents of (finish + Delay), and MinCycle
	finishCycle    uint64
	done           bool
	enqueued       bool

	// curKey is the cycle the event is keyed at in the heap. It never falls
	// and is always a lower bound on the event's final dispatch cycle, so a
	// blocked child bounds its own key with it.
	curKey uint64

	// seq is the event's deterministic creation sequence number (assigned by
	// its Slab from the slab's base + allocation index). It breaks
	// dispatch-cycle ties in the heap, so same-cycle events at a component
	// execute in a reproducible order instead of heap-arrival order.
	seq uint64
}

// Seq returns the event's deterministic creation sequence number.
func (e *Event) Seq() uint64 { return e.seq }

// AddChild declares that child depends on e (child cannot dispatch before e
// finishes plus child.Delay). The parent must have been allocated before the
// child (e.seq < child.seq); per-core slabs recording chains in program order
// satisfy this by construction.
func (e *Event) AddChild(child *Event) {
	e.children = append(e.children, child)
	child.parents = append(child.parents, e)
	child.pendingParents++
}

// Parentless reports whether the event has no parents (it is a chain root
// that must be enqueued explicitly). Only meaningful before the engine runs.
func (e *Event) Parentless() bool { return e.pendingParents == 0 }

// Finished reports whether the event has executed.
func (e *Event) Finished() bool { return e.done }

// FinishCycle returns the cycle at which the event finished (valid only after
// Finished() is true).
func (e *Event) FinishCycle() uint64 { return e.finishCycle }

// NumChildren returns the number of declared children (used by tests).
func (e *Event) NumChildren() int { return len(e.children) }

// Slab is a per-core slab allocator for events. The bound phase allocates
// events from its core's slab; after the interval's weave phase completes the
// slab is recycled wholesale, avoiding generic heap allocation on the
// simulator's hot path (Section 3.2.1, "Tracing"). Events are allocated in
// fixed-size chunks so previously returned pointers remain valid as the slab
// grows. Chunks are allocated lazily, on the first Alloc that needs them, so
// building a 1,024-core simulator does not pay for event storage that cores
// with no shared-level accesses never use; when the slab is created with a
// construction arena (NewSlabIn), chunks are carved from it.
type Slab struct {
	chunks    [][]Event
	chunkSize int
	cur       int // index of the chunk being filled
	next      int // next free slot within the current chunk
	inUse     int
	arena     *arena.Arena
	seqBase   uint64
}

// SetSeqBase sets the base of the sequence numbers this slab assigns.
// Per-core slabs get disjoint bases (coreID << 32) so every event in an
// interval has a globally unique, bound-phase-deterministic sequence number.
func (s *Slab) SetSeqBase(base uint64) { s.seqBase = base }

// NewSlab creates a slab whose chunks hold n events each.
func NewSlab(n int) *Slab { return NewSlabIn(nil, n) }

// NewSlabIn creates a slab whose (lazily allocated) chunks of n events each
// are carved from the given construction arena (nil falls back to the heap).
func NewSlabIn(a *arena.Arena, n int) *Slab {
	if n < 16 {
		n = 16
	}
	s := arena.One[Slab](a)
	s.chunkSize = n
	s.arena = a
	return s
}

// Alloc returns a cleared event from the slab, growing it by whole chunks as
// needed. The recycled event's children and parents slices keep their
// capacity, so graphs rebuilt interval after interval stop allocating once
// the slab has warmed up.
func (s *Slab) Alloc() *Event {
	if len(s.chunks) == 0 {
		s.chunks = append(s.chunks, arena.Take[Event](s.arena, s.chunkSize))
	} else if s.next == s.chunkSize {
		s.cur++
		s.next = 0
		if s.cur == len(s.chunks) {
			s.chunks = append(s.chunks, arena.Take[Event](s.arena, s.chunkSize))
		}
	}
	e := &s.chunks[s.cur][s.next]
	s.next++
	children, parents := e.children[:0], e.parents[:0]
	*e = Event{children: children, parents: parents, seq: s.seqBase + uint64(s.inUse)}
	s.inUse++
	return e
}

// Reset recycles every event in the slab (whole-interval recycling).
func (s *Slab) Reset() {
	s.cur = 0
	s.next = 0
	s.inUse = 0
}

// InUse returns the number of live events.
func (s *Slab) InUse() int { return s.inUse }

// At returns the i-th live event (0 <= i < InUse()), in allocation order.
func (s *Slab) At(i int) *Event {
	return &s.chunks[i/s.chunkSize][i%s.chunkSize]
}

// queueItem is one heap entry. The key is copied out of the event so heap
// comparisons stay pointer-chase-free.
type queueItem struct {
	ev    *Event
	cycle uint64
	seq   uint64
}

// less is the (cycle, sequence) heap order. Component is deliberately not
// part of the key: every parent→child edge runs from a lower to a higher
// sequence number, which is what guarantees a blocked head can always be
// re-keyed strictly upward.
func (a *queueItem) less(b *queueItem) bool {
	if a.cycle != b.cycle {
		return a.cycle < b.cycle
	}
	return a.seq < b.seq
}

// eventPQ is a typed binary min-heap over queueItems (no container/heap
// interface boxing).
type eventPQ []queueItem

// init establishes the heap property over the whole slice in O(n).
func (q eventPQ) init() {
	for i := len(q)/2 - 1; i >= 0; i-- {
		q.down(i)
	}
}

// down sifts element i toward the leaves until the heap property holds.
func (q eventPQ) down(i int) {
	n := len(q)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		m := l
		if r := l + 1; r < n && q[r].less(&q[l]) {
			m = r
		}
		if !q[m].less(&q[i]) {
			return
		}
		q[i], q[m] = q[m], q[i]
		i = m
	}
}

// pop removes and returns the head. The heap must not be empty.
func (q *eventPQ) pop() queueItem {
	s := *q
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	*q = s[:n]
	q.down(0)
	return top
}

// raiseHead re-keys the head to cycle (>= its current key) and restores the
// heap property.
func (q eventPQ) raiseHead(cycle uint64) {
	q[0].cycle = cycle
	q[0].ev.curKey = cycle
	q.down(0)
}

// Engine executes the weave phase of each interval. The zero Engine is ready
// to use; one engine serves every interval of a simulation, keeping the
// capacity of its heap and root list, so a steady-state interval allocates
// nothing.
type Engine struct {
	pq eventPQ
	// roots collects the events enqueued since the last Run.
	roots []*Event
}

// Enqueue submits a root event (one with no parents). Its descendants join
// the interval through their parents when Run starts; only roots need
// explicit enqueueing.
func (e *Engine) Enqueue(ev *Event) { e.roots = append(e.roots, ev) }

// Run executes all enqueued events and their descendants to completion and
// returns the largest finish cycle (the interval's actual end; 0 when nothing
// was enqueued).
func (e *Engine) Run() uint64 {
	e.load()
	var maxFinish uint64
	for len(e.pq) > 0 {
		head := &e.pq[0]
		ev := head.ev
		switch {
		case ev.pendingParents > 0:
			e.pq.raiseHead(blockedBound(ev, head.cycle))
		case ev.readyCycle > head.cycle:
			e.pq.raiseHead(ev.readyCycle)
		default:
			if f := execute(e.pq.pop()); f > maxFinish {
				maxFinish = f
			}
		}
	}
	return maxFinish
}

// load places every event of the interval in the heap at its lower bound: it
// appends the roots enqueued since the last Run, then walks the appended
// slice itself breadth-first, appending each child the first time a parent
// reaches it, and finally heapifies. The heap keeps its capacity across
// intervals, so a warm engine loads an interval without allocating.
func (e *Engine) load() {
	q := e.pq[:0]
	for _, ev := range e.roots {
		q = q.add(ev)
	}
	for i := 0; i < len(q); i++ {
		for _, ch := range q[i].ev.children {
			if !ch.enqueued {
				q = q.add(ch)
			}
		}
	}
	q.init()
	e.pq = q
	e.roots = e.roots[:0]
}

// add marks ev enqueued and appends it keyed at its lower bound. A full
// slice doubles: the heap of a large interval would otherwise grow by
// append's 1.25x steps, allocating several times its final size.
func (q eventPQ) add(ev *Event) eventPQ {
	ev.enqueued = true
	if ev.readyCycle < ev.MinCycle {
		ev.readyCycle = ev.MinCycle
	}
	ev.curKey = ev.MinCycle
	if len(q) == cap(q) {
		q = slices.Grow(q, len(q)+1)
	}
	return append(q, queueItem{ev: ev, cycle: ev.MinCycle, seq: ev.seq})
}

// blockedBound returns the tightest known lower bound on the final key of a
// head that still has unfinished parents: its ready cycle so far, and each
// unfinished parent's key plus Delay.
func blockedBound(ev *Event, headCycle uint64) uint64 {
	lb := ev.readyCycle
	for _, p := range ev.parents {
		if p.done {
			continue
		}
		c := p.curKey + ev.Delay
		if c < p.curKey {
			c = maxCycle
		}
		if c > lb {
			lb = c
		}
	}
	if lb <= headCycle {
		panic("event: dependency graph violates creation order (a parent was allocated after its child); every parent needs parent.Seq() < child.Seq()")
	}
	return lb
}

// execute dispatches a popped event at its final key, releases its children
// and returns its finish cycle.
func execute(it queueItem) uint64 {
	ev := it.ev
	finish := it.cycle
	if ev.Exec != nil {
		if f := ev.Exec(ev, it.cycle); f > finish {
			finish = f
		}
	}
	ev.finishCycle = finish
	ev.done = true
	for _, ch := range ev.children {
		if r := finish + ch.Delay; r > ch.readyCycle {
			ch.readyCycle = r
		}
		ch.pendingParents--
	}
	return finish
}

// The rest of this file is what bench/ (frozen until a later benchmark PR)
// still compiles against from the retired parallel executor. Nothing outside
// bench/ uses it: every Mode runs the one executor, and the engine has no
// domains or goroutines to configure or release.

// Mode named a weave executor choice.
type Mode int

// The retired executor choices.
const (
	ModeParallel Mode = iota
	ModeSerial
)

// NewEngine returns a new Engine; the argument (once a domain count) is
// ignored.
func NewEngine(int) *Engine { return new(Engine) }

// SetMode does nothing.
func (e *Engine) SetMode(Mode) {}

// AssignComponent does nothing.
func (e *Engine) AssignComponent(comp, domain int) {}

// Close does nothing.
func (e *Engine) Close() {}
