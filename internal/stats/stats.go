// Package stats provides the per-component counters every timing model keeps,
// organized as a tree of registries that can be reset for warm reuse and
// exported as text or CSV, plus the derived per-run Metrics the experiment
// tables are built from.
//
// The original zsim exports statistics through HDF5; this implementation is
// stdlib-only and exports through text and CSV writers, which is sufficient
// for the experiment harness to regenerate every table and figure in the
// paper.
//
// A Counter is a plain uint64 updated by a single goroutine: each core and
// private cache is driven by exactly one host thread at a time during the
// bound phase. Components that several host threads update at once (shared
// cache banks, memory controllers) register AtomicCounters instead.
// Aggregation across components happens at interval or simulation
// boundaries.
package stats

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync/atomic"

	"zsim/internal/arena"
)

// Counter is a monotonically increasing scalar statistic.
type Counter struct {
	Name string
	Desc string
	V    uint64
}

// Inc adds one to the counter.
func (c *Counter) Inc() { c.V++ }

// Add adds n to the counter.
func (c *Counter) Add(n uint64) { c.V += n }

// Get returns the current value.
func (c *Counter) Get() uint64 { return c.V }

// Set overwrites the counter value. It is used when a model computes the
// value externally (e.g., cycle counters owned by a core model).
func (c *Counter) Set(v uint64) { c.V = v }

// AtomicCounter is a monotonically increasing scalar statistic updated by
// several host threads at once. Components whose hot path is sharded across
// threads (shared caches with striped locking, memory controllers) use it
// instead of Counter, trading a lock-free atomic add for the single-writer
// assumption.
type AtomicCounter struct {
	Name string
	Desc string
	v    atomic.Uint64
}

// Inc adds one to the counter.
func (c *AtomicCounter) Inc() { c.v.Add(1) }

// Get returns the current value.
func (c *AtomicCounter) Get() uint64 { return c.v.Load() }

// Set overwrites the counter value.
func (c *AtomicCounter) Set(v uint64) { c.v.Store(v) }

// Registry is a named collection of statistics belonging to one simulated
// component (a core, a cache, a memory controller). Registries nest to form
// the stats tree of the whole simulated system.
//
// Registries and the statistics they register are flat, arena-backed objects
// when the root registry carries an arena (NewRegistryIn): every Counter,
// AtomicCounter and child Registry is carved from large type-uniform
// chunks instead of being heap-allocated individually, and indexed children
// (ChildIdx) format their names lazily at export time. Building the stats
// tree of a 1,024-core chip is then a handful of chunk allocations.
type Registry struct {
	// name is the explicit component name; indexed registries (ChildIdx)
	// leave it empty and carry prefix + idx instead, formatting the name only
	// when exporting.
	name   string
	prefix string
	idx    int32

	arena    *arena.Arena
	counters []*Counter
	atomics  []*AtomicCounter
	children []*Registry
}

// NewRegistry creates an empty registry with the given component name.
func NewRegistry(name string) *Registry {
	return &Registry{name: name}
}

// NewRegistryIn creates a root registry whose statistics tree (counters,
// children, ...) is allocated from the given arena. Children inherit the
// arena.
func NewRegistryIn(name string, a *arena.Arena) *Registry {
	r := arena.One[Registry](a)
	r.name = name
	r.arena = a
	return r
}

// Arena returns the arena backing this registry tree (nil for plain
// registries). Component constructors that receive a registry use it to
// allocate their own bulk state from the same slabs.
func (r *Registry) Arena() *arena.Arena { return r.arena }

// Name returns the component name, formatting indexed names lazily.
func (r *Registry) Name() string {
	if r.prefix == "" {
		return r.name
	}
	return fmt.Sprintf("%s-%d", r.prefix, r.idx)
}

// Counter creates, registers and returns a new counter.
func (r *Registry) Counter(name, desc string) *Counter {
	c := arena.One[Counter](r.arena)
	c.Name, c.Desc = name, desc
	if r.counters == nil {
		r.counters = arena.TakeCap[*Counter](r.arena, 0, 10)
	}
	r.counters = append(r.counters, c)
	return c
}

// Atomic creates, registers and returns a new atomic counter.
func (r *Registry) Atomic(name, desc string) *AtomicCounter {
	c := arena.One[AtomicCounter](r.arena)
	c.Name, c.Desc = name, desc
	if r.atomics == nil {
		r.atomics = arena.TakeCap[*AtomicCounter](r.arena, 0, 6)
	}
	r.atomics = append(r.atomics, c)
	return c
}

// Child creates, registers and returns a nested registry (inheriting the
// arena, if any).
func (r *Registry) Child(name string) *Registry {
	c := arena.One[Registry](r.arena)
	c.name = name
	c.arena = r.arena
	r.children = append(r.children, c)
	return c
}

// ChildIdx creates, registers and returns a nested registry whose name is
// "<prefix>-<idx>", formatted lazily at export time so that building
// thousands of per-component registries performs no string allocation.
func (r *Registry) ChildIdx(prefix string, idx int) *Registry {
	c := arena.One[Registry](r.arena)
	c.prefix = prefix
	c.idx = int32(idx)
	c.arena = r.arena
	r.children = append(r.children, c)
	return c
}

// Reset zeroes every counter in the subtree without disturbing the tree structure or names. It is
// the statistics half of warm-simulator reuse: a reused system starts from
// the exact zero state a freshly built stats tree has.
func (r *Registry) Reset() {
	for _, c := range r.counters {
		c.V = 0
	}
	for _, c := range r.atomics {
		c.Set(0)
	}
	for _, ch := range r.children {
		ch.Reset()
	}
}

// WriteText writes a human-readable dump of the registry tree.
func (r *Registry) WriteText(w io.Writer) error {
	return r.writeText(w, 0)
}

func (r *Registry) writeText(w io.Writer, depth int) error {
	indent := strings.Repeat("  ", depth)
	if _, err := fmt.Fprintf(w, "%s%s:\n", indent, r.Name()); err != nil {
		return err
	}
	for _, c := range r.counters {
		if _, err := fmt.Fprintf(w, "%s  %s: %d # %s\n", indent, c.Name, c.V, c.Desc); err != nil {
			return err
		}
	}
	for _, c := range r.atomics {
		if _, err := fmt.Fprintf(w, "%s  %s: %d # %s\n", indent, c.Name, c.Get(), c.Desc); err != nil {
			return err
		}
	}
	for _, ch := range r.children {
		if err := ch.writeText(w, depth+1); err != nil {
			return err
		}
	}
	return nil
}

// WriteCSV writes all counters in the subtree as "path,name,value" rows,
// sorted by path, suitable for post-processing by the experiment harness.
func (r *Registry) WriteCSV(w io.Writer) error {
	rows := r.collectCSV("")
	sort.Strings(rows)
	for _, row := range rows {
		if _, err := fmt.Fprintln(w, row); err != nil {
			return err
		}
	}
	return nil
}

func (r *Registry) collectCSV(prefix string) []string {
	path := r.Name()
	if prefix != "" {
		path = prefix + "." + r.Name()
	}
	var rows []string
	for _, c := range r.counters {
		rows = append(rows, fmt.Sprintf("%s,%s,%d", path, c.Name, c.V))
	}
	for _, c := range r.atomics {
		rows = append(rows, fmt.Sprintf("%s,%s,%d", path, c.Name, c.Get()))
	}
	for _, ch := range r.children {
		rows = append(rows, ch.collectCSV(path)...)
	}
	return rows
}
