// Package stats provides the tree through which every timing model exports
// its statistics as text or CSV, plus the derived per-run Metrics the
// experiment tables are built from.
//
// The original zsim exports statistics through HDF5; this implementation is
// stdlib-only and exports through text and CSV writers, which is sufficient
// for the experiment harness to regenerate every table and figure in the
// paper.
//
// Components keep their counts as plain fields of their own records, updated
// under whatever synchronization the component already has (a cache counts
// under its stripe locks; the lock-free simple memory controller alone uses
// atomics), and zero them in their own Reset. A registry node only names a
// component and reads its counts, through the component's Source, when the
// tree is exported at the end of a run.
package stats

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"zsim/internal/arena"
)

// Source is a component whose statistics a registry node exports. VisitStats
// calls f once per statistic, always in the same order, with the statistic's
// name, description and current value: each type's VisitStats is that type's
// one table of statistic names.
type Source interface {
	VisitStats(f func(name, desc string, v uint64))
}

// Registry is a node of the statistics tree of the simulated system: a
// component name, at most one Source and the nested nodes.
//
// When the root registry carries an arena (NewRegistryIn), every child node
// is carved from it, indexed children (ChildIdx) format their names lazily
// at export time, and components built under the tree allocate their own
// bulk state from the same arena (Arena). Building the stats tree of a
// 1,024-core chip is then a handful of chunk allocations.
type Registry struct {
	// name is the explicit component name; indexed registries (ChildIdx)
	// leave it empty and carry prefix + idx instead, formatting the name only
	// when exporting.
	name   string
	prefix string
	idx    int32

	arena    *arena.Arena
	source   Source
	children []*Registry
}

// NewRegistry creates an empty registry with the given component name.
func NewRegistry(name string) *Registry {
	return &Registry{name: name}
}

// NewRegistryIn creates a root registry whose tree is allocated from the
// given arena. Children inherit the arena.
func NewRegistryIn(name string, a *arena.Arena) *Registry {
	r := arena.One[Registry](a)
	r.name = name
	r.arena = a
	return r
}

// Arena returns the arena backing this registry tree (nil for plain or nil
// registries). Component constructors that receive a registry use it to
// allocate their own bulk state from the same slabs.
func (r *Registry) Arena() *arena.Arena {
	if r == nil {
		return nil
	}
	return r.arena
}

// Record makes src the node's statistics. On a nil registry it does nothing:
// a component built without one still counts, it just exports nothing.
func (r *Registry) Record(src Source) {
	if r != nil {
		r.source = src
	}
}

// Name returns the component name, formatting indexed names lazily.
func (r *Registry) Name() string {
	if r.prefix == "" {
		return r.name
	}
	return fmt.Sprintf("%s-%d", r.prefix, r.idx)
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

// WriteText writes a human-readable dump of the registry tree.
func (r *Registry) WriteText(w io.Writer) error {
	return r.writeText(w, 0)
}

func (r *Registry) writeText(w io.Writer, depth int) error {
	indent := strings.Repeat("  ", depth)
	_, err := fmt.Fprintf(w, "%s%s:\n", indent, r.Name())
	if r.source != nil {
		r.source.VisitStats(func(name, desc string, v uint64) {
			if err == nil {
				_, err = fmt.Fprintf(w, "%s  %s: %d # %s\n", indent, name, v, desc)
			}
		})
	}
	for _, ch := range r.children {
		if err != nil {
			break
		}
		err = ch.writeText(w, depth+1)
	}
	return err
}

// WriteCSV writes all statistics in the subtree as "path,name,value" rows,
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
	if r.source != nil {
		r.source.VisitStats(func(name, _ string, v uint64) {
			rows = append(rows, fmt.Sprintf("%s,%s,%d", path, name, v))
		})
	}
	for _, ch := range r.children {
		rows = append(rows, ch.collectCSV(path)...)
	}
	return rows
}
