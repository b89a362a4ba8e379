// Package event implements the weave-phase event-driven simulation framework
// described in Section 3.2.2 of the paper.
//
// The bound phase records, per core, a trace of the microarchitectural events
// each memory access generates beyond the private cache levels (L3 bank
// accesses, NoC router traversals, memory controller reads, writebacks). The
// weave phase replays those events in full order to model contention. Every
// event carries a lower bound on its execution cycle (established by the
// zero-load bound phase), its children (events that cannot start before it
// finishes) and a count of unfinished parents.
//
// # One executor
//
// An Engine runs every interval on the caller from a single binary min-heap
// ordered by (dispatch cycle, sequence number) that holds only events ready to
// run. Enqueue pushes a chain root at its lower bound (MinCycle). Run executes
// the minimum in place and releases its children; a child whose last parent
// has just finished is ready at the latest parent finish plus Delay, and at
// least MinCycle. The first ready child replaces the executed head with one
// sift-down, later ones are pushed, and a head that readies no child is
// popped. Every parent has finished by then, so a key is final when it enters
// the heap and is never changed.
//
// The pop order is the pure (final dispatch cycle, sequence) order, a function
// of the bound phase alone:
//
//   - Keys pushed are never below the cycle being popped: a child's key is at
//     least its parent's finish plus Delay, and a finish is never below its
//     dispatch.
//   - Suppose an event X is popped while an event Y with a smaller (cycle,
//     sequence) key is not yet in the heap. Then Y has an unfinished parent P.
//     P dispatches no later than Y, and it was created before Y (Run panics on
//     a child with a lower sequence number than its parent), so P's key is
//     below Y's and therefore below X's. Following unfinished parents from Y
//     ends at an event whose parents have all finished: it is in the heap with
//     a key below X's, and the heap would have popped it instead of X.
//
// Sequence numbers are the creation order within a Slab, so a tie at a cycle
// never depends on which event became ready first. The paper runs the weave
// phase as parallel domains; DESIGN.md "Weave executor" records why this
// reproduction runs one heap instead.
package event

// Executor is the contention-model callback attached to an event: it receives
// the event itself (whose Comp/Arg/Flag fields select the model and carry the
// access) and the cycle at which the event is dispatched, and returns the
// cycle at which the event finishes (>= the dispatch cycle). A simulator binds
// one executor that switches on Comp over its model tables and gives it to
// every event, so building an interval's event graph allocates nothing. An
// executor must not call Enqueue.
type Executor func(ev *Event, dispatchCycle uint64) (finishCycle uint64)

// Event is one weave-phase event: an access occupying one contended
// component (an L3 bank, a memory controller, a NoC router port). Events are
// allocated from a Slab with their dependencies fully specified before the
// engine runs them. An Event is 80 bytes.
type Event struct {
	// Comp is the global component ID the event operates on.
	Comp int
	// MinCycle is the lower bound on the event's execution cycle, established
	// by the zero-load bound phase.
	MinCycle uint64
	// Exec computes the event's finish cycle given its dispatch cycle. A nil
	// Exec means the event finishes instantly at its dispatch cycle.
	Exec Executor
	// Arg is an executor-defined scalar (e.g. the access's line address).
	Arg uint64
	// Delay is the fixed parent-to-child delay: the event cannot be
	// dispatched before parentFinish + Delay (for each parent).
	Delay uint32
	// Flag is an executor-defined boolean (e.g. miss-vs-hit or write-vs-read).
	Flag bool

	// Mutable simulation state. Delay through seq pack into two words.
	done           bool
	pendingParents int32
	// seq is the event's creation sequence number in its Slab. It breaks
	// dispatch-cycle ties in the heap, so same-cycle events execute in a
	// reproducible order instead of heap-arrival order.
	seq      uint32
	children []*Event
	// cycle is the ready cycle (the max over finished parents of finish +
	// Delay) until the event runs, and its finish cycle after.
	cycle uint64
}

// AddChild declares that child depends on e (child cannot dispatch before e
// finishes plus child.Delay). The parent must have been allocated before the
// child (e.seq < child.seq); chains built in program order satisfy this by
// construction.
func (e *Event) AddChild(child *Event) {
	e.children = append(e.children, child)
	child.pendingParents++
}

// FinishCycle returns the cycle at which the event finished (valid only after
// it has executed).
func (e *Event) FinishCycle() uint64 { return e.cycle }

// NumChildren returns the number of declared children (used by tests).
func (e *Event) NumChildren() int { return len(e.children) }

// Slab is the slab allocator for one interval's events. The weave phase's
// chain builder allocates every event of an interval from one slab, and the
// slab numbers them in allocation order (Seq); after the interval the slab is
// recycled wholesale, avoiding generic heap allocation on the simulator's hot
// path (Section 3.2.1, "Tracing"). Events live in fixed-size chunks so
// previously returned pointers remain valid as the slab grows. Chunks are
// allocated lazily, on the first Alloc that needs them, so a simulator that
// never weaves never pays for event storage. Every chunk has the same size,
// so a slab's footprint follows its busiest interval to within one chunk.
type Slab struct {
	chunks    [][]Event
	chunkSize int
	cur       int // index of the chunk being filled
	next      int // next free slot within the current chunk
	inUse     int
}

// NewSlab creates a slab whose (lazily allocated) chunks hold n events each.
func NewSlab(n int) *Slab {
	if n < 16 {
		n = 16
	}
	return &Slab{chunkSize: n}
}

// Alloc returns a cleared event from the slab, growing it by whole chunks as
// needed. The recycled event's children slice keeps its capacity, so graphs
// rebuilt interval after interval stop allocating once the slab has warmed
// up.
func (s *Slab) Alloc() *Event {
	if len(s.chunks) == 0 {
		s.chunks = append(s.chunks, make([]Event, s.chunkSize))
	} else if s.next == s.chunkSize {
		s.cur++
		s.next = 0
		if s.cur == len(s.chunks) {
			s.chunks = append(s.chunks, make([]Event, s.chunkSize))
		}
	}
	e := &s.chunks[s.cur][s.next]
	s.next++
	*e = Event{children: e.children[:0], seq: uint32(s.inUse)}
	s.inUse++
	return e
}

// Reset recycles every event in the slab (whole-interval recycling); sequence
// numbers start again from zero.
func (s *Slab) Reset() {
	s.cur = 0
	s.next = 0
	s.inUse = 0
}

// InUse returns the number of live events.
func (s *Slab) InUse() int { return s.inUse }

// queueItem is one heap entry. The key is copied out of the event so heap
// comparisons stay pointer-chase-free.
type queueItem struct {
	ev    *Event
	cycle uint64
	seq   uint32
}

// readyItem is the heap entry of a ready event: its key is its ready cycle,
// at least its lower bound.
func readyItem(ev *Event) queueItem {
	return queueItem{ev: ev, cycle: max(ev.cycle, ev.MinCycle), seq: ev.seq}
}

// less is the (cycle, sequence) heap order. Component is deliberately not
// part of the key: the order is global, and every parent→child edge runs
// from a lower to a higher sequence number.
func (a *queueItem) less(b *queueItem) bool {
	if a.cycle != b.cycle {
		return a.cycle < b.cycle
	}
	return a.seq < b.seq
}

// eventPQ is a typed binary min-heap over queueItems (no container/heap
// interface boxing).
type eventPQ []queueItem

// push adds a ready event and sifts it up.
func (q *eventPQ) push(ev *Event) {
	it := readyItem(ev)
	*q = append(*q, it)
	s := *q
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !it.less(&s[p]) {
			break
		}
		s[i] = s[p]
		i = p
	}
	s[i] = it
}

// setTop overwrites the head with it and sifts it toward the leaves until the
// heap property holds.
func (q eventPQ) setTop(it queueItem) {
	n := len(q)
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && q[r].less(&q[l]) {
			m = r
		}
		if !q[m].less(&it) {
			break
		}
		q[i] = q[m]
		i = m
	}
	q[i] = it
}

// pop removes the head. The heap must not be empty.
func (q *eventPQ) pop() {
	s := *q
	n := len(s) - 1
	*q = s[:n]
	if n > 0 {
		q.setTop(s[n])
	}
}

// Engine executes the weave phase of each interval. The zero Engine is ready
// to use; one engine serves every interval of a simulation and keeps its
// heap's capacity, so a steady-state interval allocates nothing.
type Engine struct {
	pq eventPQ
}

// Enqueue pushes a root event (one with no parents) at its lower bound. Its
// descendants join the heap through their parents as those finish; only
// roots need explicit enqueueing.
func (e *Engine) Enqueue(ev *Event) { e.pq.push(ev) }

// Reset drops every event still in the heap (the heap is empty after any Run
// that returned normally).
func (e *Engine) Reset() { e.pq = e.pq[:0] }

// Run executes all enqueued events and their descendants to completion and
// returns the largest finish cycle (the interval's actual end; 0 when nothing
// was enqueued). A ready child's key is above its parent's and keys are
// unique, so replacing the head in place keeps the pop-then-push order.
func (e *Engine) Run() uint64 {
	var maxFinish uint64
	for len(e.pq) > 0 {
		it := e.pq[0]
		ev := it.ev
		finish := it.cycle
		if ev.Exec != nil {
			if f := ev.Exec(ev, it.cycle); f > finish {
				finish = f
			}
		}
		ev.cycle = finish
		ev.done = true
		maxFinish = max(maxFinish, finish)
		atHead := true // ev still occupies the heap's root
		for _, ch := range ev.children {
			if ch.seq < ev.seq {
				panic("event: dependency graph violates creation order (a parent was allocated after its child); every parent needs a lower seq than its child")
			}
			ch.cycle = max(ch.cycle, finish+uint64(ch.Delay))
			ch.pendingParents--
			if ch.pendingParents == 0 {
				if atHead {
					e.pq.setTop(readyItem(ch))
					atHead = false
				} else {
					e.pq.push(ch)
				}
			}
		}
		if atHead {
			e.pq.pop()
		}
	}
	return maxFinish
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
