// Package campaign implements design-space sweeps over simulator
// configurations: a base config.System plus axis specifications (core counts,
// topologies, link widths, seeds, workload sets — cartesian, or an explicit
// point list) expands deterministically into an ordered sequence of
// simulation points, and an incremental aggregator folds finished points into
// live campaign reports (completion counts, latency percentiles, per-axis
// scaling curves over the simulated metrics).
//
// The package is pure policy: it never runs anything. internal/serve turns
// points into child jobs and feeds outcomes back into the aggregator; the
// paper's "thousand-config" studies ride on top of it via POST /campaigns.
package campaign

import (
	"fmt"
	"strings"

	"zsim/internal/config"
)

// Workload names one synthetic workload of a point or a job (the serve
// layer's WorkloadSpec is this type).
type Workload struct {
	// Name is a registered workload name (zsim.NamedWorkloads).
	Name string `json:"name"`
	// Threads is the number of software threads (defaults to 1 at run time).
	Threads int `json:"threads,omitempty"`
	// Blocks overrides the workload's per-thread basic-block budget when > 0.
	Blocks int `json:"blocks,omitempty"`
}

// WorkloadSet is one value of the workloads axis: a label (used in coords and
// aggregation) and the workloads that replace the base job's workload list.
type WorkloadSet struct {
	// Label names the set in axis coordinates; when empty, the workload names
	// are joined with "+".
	Label string `json:"label,omitempty"`
	// Specs are the workloads of every point taking this axis value.
	Specs []Workload `json:"specs"`
}

func (ws *WorkloadSet) label() string {
	if ws.Label != "" {
		return ws.Label
	}
	names := make([]string, 0, len(ws.Specs))
	for _, w := range ws.Specs {
		names = append(names, w.Name)
	}
	return strings.Join(names, "+")
}

// PointSpec is one entry of an explicit point list. Zero-valued fields
// inherit the campaign base.
type PointSpec struct {
	Cores     int        `json:"cores,omitempty"`
	Topology  string     `json:"topology,omitempty"`
	LinkBytes int        `json:"linkBytes,omitempty"`
	Seed      uint64     `json:"seed,omitempty"`
	Workloads []Workload `json:"workloads,omitempty"`
}

// Axes describes how a campaign expands. Either the cartesian axes (Cores ×
// Topologies × LinkBytes × Seeds × Workloads, in that fixed nesting order,
// empty axes pinned to the base value) or an explicit Points list — never
// both.
type Axes struct {
	// Cores sweeps config.System.NumCores (each value must keep the base's
	// coresPerTile divisibility).
	Cores []int `json:"cores,omitempty"`
	// Topologies sweeps the network kind ("ring", "mesh", "flat").
	Topologies []string `json:"topologies,omitempty"`
	// LinkBytes sweeps the NoC link width (nocLinkBytes).
	LinkBytes []int `json:"linkBytes,omitempty"`
	// Seeds sweeps the run seed — the same-shape axis: every seed point shares
	// one configuration shape, so a seed sweep is the warm-pool ideal customer.
	Seeds []uint64 `json:"seeds,omitempty"`
	// Workloads sweeps the workload set.
	Workloads []WorkloadSet `json:"workloads,omitempty"`
	// Points is the explicit alternative to the cartesian axes.
	Points []PointSpec `json:"points,omitempty"`
}

// cartesian reports whether any cartesian axis is set.
func (a *Axes) cartesian() bool {
	return len(a.Cores) > 0 || len(a.Topologies) > 0 || len(a.LinkBytes) > 0 ||
		len(a.Seeds) > 0 || len(a.Workloads) > 0
}

// Coord locates a point on one axis ("cores" = "64", "linkBytes" = "8", ...).
type Coord struct {
	Axis  string `json:"axis"`
	Value string `json:"value"`
}

// Point is one expanded configuration point of a campaign, in campaign order.
type Point struct {
	// Index is the point's position in the deterministic expansion order.
	Index int
	// Config is the point's validated system description.
	Config *config.System
	// Seed is the run seed (0 = inherit the campaign base's).
	Seed uint64
	// Workloads replaces the base workload list when non-nil.
	Workloads []Workload
	// Coords are the point's axis coordinates, one per swept axis, in axis
	// order. Aggregation groups completed points by them.
	Coords []Coord
	// Shape is the config's shape key (config.System.ShapeKey), the warm-pool
	// and result-store grouping key.
	Shape uint64
}

// The axis names, in their fixed nesting order (outermost first).
const (
	AxisCores     = "cores"
	AxisTopology  = "topology"
	AxisLinkBytes = "linkBytes"
	AxisSeed      = "seed"
	AxisWorkloads = "workloads"
	AxisExplicit  = "point" // explicit point lists
)

// Expand expands a validated base configuration and axis spec into the
// campaign's ordered point list. Expansion is deterministic: the same base and
// axes always produce the same points in the same order (nested loops over the
// axes in their fixed order, outermost to innermost; explicit lists in list
// order). Every point's configuration is validated; an invalid point fails the
// whole expansion with an error naming it, so a campaign is accepted or
// rejected atomically. maxPoints bounds the expansion size (<= 0 selects
// DefaultMaxPoints).
func Expand(base *config.System, axes Axes, maxPoints int) ([]Point, error) {
	if base == nil {
		return nil, fmt.Errorf("campaign: nil base config")
	}
	if maxPoints <= 0 {
		maxPoints = DefaultMaxPoints
	}
	if len(axes.Points) > 0 {
		if axes.cartesian() {
			return nil, fmt.Errorf("campaign: explicit points and cartesian axes are mutually exclusive")
		}
		return expandExplicit(base, axes.Points, maxPoints)
	}
	return expandCartesian(base, axes, maxPoints)
}

// DefaultMaxPoints bounds a campaign expansion when the caller sets no limit.
const DefaultMaxPoints = 10000

func expandCartesian(base *config.System, axes Axes, maxPoints int) ([]Point, error) {
	// Pin every empty axis to a single sentinel so one nested loop covers all
	// arities; sentinel axes contribute no coordinate.
	cores := axes.Cores
	if len(cores) == 0 {
		cores = []int{0}
	}
	topos := axes.Topologies
	if len(topos) == 0 {
		topos = []string{""}
	}
	links := axes.LinkBytes
	if len(links) == 0 {
		links = []int{0}
	}
	seeds := axes.Seeds
	if len(seeds) == 0 {
		seeds = []uint64{0}
	}
	wsets := axes.Workloads
	if len(wsets) == 0 {
		wsets = []WorkloadSet{{}}
	}

	total := len(cores) * len(topos) * len(links) * len(seeds) * len(wsets)
	if total > maxPoints {
		return nil, fmt.Errorf("campaign: expansion has %d points, limit is %d", total, maxPoints)
	}
	points := make([]Point, 0, total)
	for _, nc := range cores {
		for _, topo := range topos {
			for _, lb := range links {
				for _, seed := range seeds {
					for wi := range wsets {
						ws := &wsets[wi]
						spec := PointSpec{Cores: nc, Topology: topo, LinkBytes: lb, Seed: seed, Workloads: ws.Specs}
						var coords []Coord
						if len(axes.Cores) > 0 {
							coords = append(coords, Coord{AxisCores, fmt.Sprintf("%d", nc)})
						}
						if len(axes.Topologies) > 0 {
							coords = append(coords, Coord{AxisTopology, topo})
						}
						if len(axes.LinkBytes) > 0 {
							coords = append(coords, Coord{AxisLinkBytes, fmt.Sprintf("%d", lb)})
						}
						if len(axes.Seeds) > 0 {
							coords = append(coords, Coord{AxisSeed, fmt.Sprintf("%d", seed)})
						}
						if len(axes.Workloads) > 0 {
							coords = append(coords, Coord{AxisWorkloads, ws.label()})
						}
						p, err := makePoint(base, spec, len(points), coords)
						if err != nil {
							return nil, err
						}
						points = append(points, p)
					}
				}
			}
		}
	}
	return points, nil
}

func expandExplicit(base *config.System, specs []PointSpec, maxPoints int) ([]Point, error) {
	if len(specs) > maxPoints {
		return nil, fmt.Errorf("campaign: expansion has %d points, limit is %d", len(specs), maxPoints)
	}
	points := make([]Point, 0, len(specs))
	for i, spec := range specs {
		coords := []Coord{{AxisExplicit, fmt.Sprintf("%d", i)}}
		p, err := makePoint(base, spec, i, coords)
		if err != nil {
			return nil, err
		}
		points = append(points, p)
	}
	return points, nil
}

// makePoint applies one point spec to a copy of the base configuration and
// validates the result.
func makePoint(base *config.System, spec PointSpec, index int, coords []Coord) (Point, error) {
	cfg := *base // value copy: config.System holds no reference types
	if spec.Cores > 0 {
		cfg.NumCores = spec.Cores
	}
	if spec.Topology != "" {
		cfg.Network = config.NetworkKind(spec.Topology) // Validate rejects unknown kinds
	}
	if spec.LinkBytes > 0 {
		cfg.NOCLinkBytes = spec.LinkBytes
	}
	if cfg.Name == "" {
		cfg.Name = "campaign"
	}
	// The point index lands in Name — a run-variable field outside the shape
	// key, so labelling points never fragments the warm pool.
	cfg.Name = fmt.Sprintf("%s/p%d", cfg.Name, index)
	if err := cfg.Validate(); err != nil {
		return Point{}, fmt.Errorf("campaign: point %d (%s): %w", index, coordString(coords), err)
	}
	return Point{
		Index:     index,
		Config:    &cfg,
		Seed:      spec.Seed,
		Workloads: spec.Workloads,
		Coords:    coords,
		Shape:     cfg.ShapeKey(),
	}, nil
}

func coordString(coords []Coord) string {
	if len(coords) == 0 {
		return "base"
	}
	parts := make([]string, 0, len(coords))
	for _, c := range coords {
		parts = append(parts, c.Axis+"="+c.Value)
	}
	return strings.Join(parts, " ")
}
