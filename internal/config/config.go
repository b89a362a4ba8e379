// Package config defines the system descriptions the simulator is built
// from: cores, cache hierarchy, network, memory controllers and bound-weave
// parameters. Configurations can be loaded from JSON (the stdlib replacement
// for zsim's libconfig files) and two presets reproduce the paper's
// configurations: Table 2's 6-core Westmere used for validation and Table 3's
// tiled 64/256/1024-core chips used for the performance evaluation.
package config

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"reflect"
	"time"

	"zsim/internal/cache"
	"zsim/internal/core"
)

// CoreModel selects a core timing model.
type CoreModel string

// Supported core models.
const (
	CoreIPC1 CoreModel = "ipc1"
	CoreOOO  CoreModel = "ooo"
)

// MemModel selects the bound-phase memory-controller model.
type MemModel string

// Supported memory-controller models.
const (
	MemSimple MemModel = "simple" // fixed zero-load latency (contention in weave phase, if enabled)
	MemMD1    MemModel = "md1"    // analytical M/D/1 queuing model applied in the bound phase
)

// WeaveMemModel selects the weave-phase DRAM contention model.
type WeaveMemModel string

// Supported weave-phase DRAM models.
const (
	WeaveMemDDR3        WeaveMemModel = "ddr3"         // detailed event-driven DDR3 model
	WeaveMemCycleDriven WeaveMemModel = "cycle-driven" // DRAMSim2-style cycle-driven model
)

// WeaveMode is the type of the retired weaveMode field. The weave phase has
// one executor; see System.WeaveModeKind.
type WeaveMode string

// The weaveMode values older configs carry. Validate accepts them (and "")
// and rejects anything else; neither changes what runs.
const (
	WeaveParallelDet WeaveMode = "parallel"
	WeaveSerial      WeaveMode = "serial"
)

// NetworkKind selects the NoC topology.
type NetworkKind string

// Supported topologies.
const (
	NetRing NetworkKind = "ring"
	NetMesh NetworkKind = "mesh"
	NetFlat NetworkKind = "flat"
)

// CacheConfig describes one cache level.
type CacheConfig struct {
	SizeKB  int    `json:"sizeKB"`
	Ways    int    `json:"ways"`
	Latency uint32 `json:"latency"`
	MSHRs   int    `json:"mshrs"`
	// Banks applies only to the shared LLC.
	Banks int `json:"banks,omitempty"`
}

// OOOParams are the OOO core's microarchitectural knobs, the "ooo" block of a
// configuration; core.OOOWestmere holds their defaults.
type OOOParams = core.OOOConfig

// System is the full simulated-system description.
type System struct {
	Name string `json:"name"`

	// Cores.
	NumCores  int       `json:"numCores"`
	CoreModel CoreModel `json:"coreModel"`
	OOO       OOOParams `json:"ooo"`
	// CoresPerTile groups cores into tiles that share an L2 (Table 3). A
	// value of 0 or 1 gives private L2s (Table 2).
	CoresPerTile int     `json:"coresPerTile"`
	FreqGHz      float64 `json:"freqGHz"`

	// Cache hierarchy.
	L1I CacheConfig `json:"l1i"`
	L1D CacheConfig `json:"l1d"`
	L2  CacheConfig `json:"l2"`
	L3  CacheConfig `json:"l3"`

	// Network.
	Network        NetworkKind `json:"network"`
	NetHopCycles   uint32      `json:"netHopCycles"`
	NetRouterStage uint32      `json:"netRouterStages"`
	NetInjection   uint32      `json:"netInjectionCycles"`

	// Weave-phase NoC contention (package noc). The bound phase always uses
	// zero-load network latencies; enabling NOCContention additionally records
	// every interconnect traversal's route and retimes it through per-router
	// port/link occupancy models in the weave phase. Off by default: with it
	// off, simulated results are bit-identical to a build without the
	// subsystem. Requires a routed topology (ring or mesh); it only takes
	// effect when Contention enables the weave phase.
	NOCContention bool `json:"nocContention"`
	// NOCLinkBytes is the link width in bytes; a 64 B line packet (plus an
	// 8 B header) is ceil(72/NOCLinkBytes) flits, and its flit train occupies
	// each link it crosses for that many cycles (default 16 B -> 5 flits).
	// Narrower links saturate earlier: this is the knob link-bandwidth
	// sensitivity sweeps turn.
	NOCLinkBytes int `json:"nocLinkBytes"`
	// NOCQueueDepth bounds each router output port's packet queue (default 8;
	// negative = unbounded). A packet arriving at a full queue blocks the
	// upstream link until the oldest in-flight flit train drains, costing
	// the port that much effective bandwidth — shallow queues make
	// congested ports collapse harder.
	NOCQueueDepth int `json:"nocQueueDepth"`
	// The router pipeline depth of the contention model is NetRouterStage,
	// the same value the zero-load mesh latency uses, so an uncontended
	// weave-phase traversal finishes exactly at its bound-phase cycle.

	// Memory.
	MemControllers int      `json:"memControllers"`
	MemModel       MemModel `json:"memModel"`
	MemLatency     uint32   `json:"memLatency"`
	// MemServiceCycles is the per-request channel occupancy used by the M/D/1
	// model and to size the DDR3 model's bandwidth.
	MemServiceCycles float64 `json:"memServiceCycles"`

	// Bound-weave parameters.
	IntervalCycles uint64 `json:"intervalCycles"`
	// Contention enables the weave phase; without it only the bound phase
	// runs (the paper's -NC configurations).
	Contention bool          `json:"contention"`
	WeaveMem   WeaveMemModel `json:"weaveMem"`
	// WeaveDomains and WeaveModeKind configured the retired parallel weave
	// executor. They stay in the schema so existing configs load, and
	// weaveMode is still validated, but neither does anything and ShapeKey
	// ignores both.
	WeaveDomains  int       `json:"weaveDomains"`
	WeaveModeKind WeaveMode `json:"weaveMode,omitempty"`
	// HostThreads caps the number of host worker threads used by the bound
	// phase barrier (0 = number of host CPUs).
	HostThreads int `json:"hostThreads"`

	// Run limits (the robustness layer). Both default to 0 = unlimited.
	//
	// MaxWallTime bounds the host wall-clock time of a run: a watchdog trips
	// cooperative cancellation when it expires, and the run stops at the next
	// interval boundary with partial metrics and a DeadlineExceeded reason.
	// JSON carries it in nanoseconds (Go time.Duration encoding).
	MaxWallTime time.Duration `json:"maxWallTimeNs,omitempty"`
	// MaxCycles bounds simulated time: the run stops at the interval
	// boundary where the global cycle reaches it, with a CycleLimit reason.
	MaxCycles uint64 `json:"maxCycles,omitempty"`
}

// Validate checks the configuration for inconsistencies and fills defaults
// for unset fields.
func (s *System) Validate() error {
	if s.NumCores <= 0 {
		return fmt.Errorf("config: numCores must be positive, got %d", s.NumCores)
	}
	if s.CoreModel == "" {
		s.CoreModel = CoreOOO
	}
	if s.CoreModel != CoreIPC1 && s.CoreModel != CoreOOO {
		return fmt.Errorf("config: unknown core model %q", s.CoreModel)
	}
	if s.CoresPerTile <= 0 {
		s.CoresPerTile = 1
	}
	if s.NumCores%s.CoresPerTile != 0 {
		return fmt.Errorf("config: numCores (%d) must be a multiple of coresPerTile (%d)", s.NumCores, s.CoresPerTile)
	}
	// Every L3 bank's directory tracks each tile's L2, and each L2's tracks
	// its cores' L1I and L1D, in 64-bit sharer masks.
	if tiles := s.NumTiles(); tiles > cache.MaxChildren {
		return fmt.Errorf("config: %d tiles exceed the L3 directory's %d-sharer limit (raise coresPerTile)", tiles, cache.MaxChildren)
	}
	if 2*s.CoresPerTile > cache.MaxChildren {
		return fmt.Errorf("config: %d cores per tile exceed the L2 directory's %d-sharer limit (2 L1s per core)", s.CoresPerTile, cache.MaxChildren)
	}
	if s.FreqGHz <= 0 {
		s.FreqGHz = 2.27
	}
	for _, c := range []struct {
		name string
		cfg  *CacheConfig
	}{{"l1i", &s.L1I}, {"l1d", &s.L1D}, {"l2", &s.L2}, {"l3", &s.L3}} {
		if c.cfg.SizeKB <= 0 {
			return fmt.Errorf("config: %s size must be positive", c.name)
		}
		if c.cfg.Ways <= 0 {
			c.cfg.Ways = 1
		}
	}
	if s.L3.Banks <= 0 {
		s.L3.Banks = 1
	}
	switch s.Network {
	case "":
		s.Network = NetFlat
	case NetRing, NetMesh, NetFlat:
	default:
		return fmt.Errorf("config: unknown network %q (want %q, %q or %q)", s.Network, NetRing, NetMesh, NetFlat)
	}
	if s.NOCContention && s.Network == NetFlat {
		return fmt.Errorf("config: nocContention requires a routed topology (ring or mesh), not %q", s.Network)
	}
	if s.NOCLinkBytes <= 0 {
		s.NOCLinkBytes = 16
	}
	if s.NOCQueueDepth == 0 {
		// Unset defaults to 8; negative values are kept as-is and mean
		// "unbounded" at the use site, so revalidating a config (Load, then
		// BuildSystem) cannot turn an explicitly-unbounded queue into a
		// bounded one.
		s.NOCQueueDepth = 8
	}
	if s.MemControllers <= 0 {
		s.MemControllers = 1
	}
	switch s.MemModel {
	case "":
		s.MemModel = MemSimple
	case MemSimple, MemMD1:
	default:
		return fmt.Errorf("config: unknown memory model %q (want %q or %q)", s.MemModel, MemSimple, MemMD1)
	}
	if s.MemLatency == 0 {
		s.MemLatency = 120
	}
	if s.MemServiceCycles <= 0 {
		s.MemServiceCycles = 8
	}
	if s.IntervalCycles == 0 {
		s.IntervalCycles = 1000
	}
	switch s.WeaveMem {
	case "":
		s.WeaveMem = WeaveMemDDR3
	case WeaveMemDDR3, WeaveMemCycleDriven:
	default:
		return fmt.Errorf("config: unknown weave memory model %q (want %q or %q; a run without contention sets contention to false)",
			s.WeaveMem, WeaveMemDDR3, WeaveMemCycleDriven)
	}
	switch s.WeaveModeKind {
	case "", WeaveParallelDet, WeaveSerial:
	default:
		return fmt.Errorf("config: unknown weave mode %q (want %q or %q)",
			s.WeaveModeKind, WeaveParallelDet, WeaveSerial)
	}
	s.OOO = s.OOO.WithDefaults()
	if o := s.OOO; min(o.IssueWidth, o.RetireWidth, o.ROBSize, o.LoadQueueSize, o.StoreQueueSize, o.FetchBytesPerCyc) < 0 {
		return fmt.Errorf("config: ooo parameters must not be negative, got %+v", o)
	}
	if s.MaxWallTime < 0 {
		s.MaxWallTime = 0 // negative = unlimited, same as unset
	}
	return nil
}

// ShapeKey hashes every construction-shape field of the configuration: the
// fields that determine what BuildSystem and NewSimulator allocate and wire
// (core counts and models, hierarchy geometry, network, controllers, host
// threads). Run-variable fields — the name and the run limits, which Options
// carry per run — and the inert weave fields are excluded, so two configs
// with equal shape keys can share one warm simulator via Reset. Validate
// both configs first: validation fills defaults, and an unvalidated config
// hashes differently from its validated self.
//
// The key is FNV-64a over System's field values in declaration order, nested
// structs included: integers, floats and bools as 8 bytes, strings with a
// length prefix. A field of a kind hashField does not handle panics, so a new
// field cannot silently fall out of the key.
func (s *System) ShapeKey() uint64 {
	shape := *s
	shape.Name = ""
	shape.MaxWallTime = 0
	shape.MaxCycles = 0
	shape.WeaveDomains = 0
	shape.WeaveModeKind = ""
	return hashField(fnvOffset64, reflect.ValueOf(&shape).Elem())
}

// FNV-64a parameters.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// hashField folds v's value into the FNV-64a state h.
func hashField(h uint64, v reflect.Value) uint64 {
	switch v.Kind() {
	case reflect.Struct:
		for i := range v.NumField() {
			h = hashField(h, v.Field(i))
		}
		return h
	case reflect.Bool:
		if v.Bool() {
			return hashWord(h, 1)
		}
		return hashWord(h, 0)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return hashWord(h, uint64(v.Int()))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		return hashWord(h, v.Uint())
	case reflect.Float32, reflect.Float64:
		return hashWord(h, math.Float64bits(v.Float()))
	case reflect.String:
		str := v.String()
		h = hashWord(h, uint64(len(str)))
		for i := range len(str) {
			h = (h ^ uint64(str[i])) * fnvPrime64
		}
		return h
	default:
		panic(fmt.Sprintf("config: ShapeKey cannot hash a %s field", v.Kind()))
	}
}

// hashWord folds the 8 little-endian bytes of x into the FNV-64a state h.
func hashWord(h, x uint64) uint64 {
	for range 8 {
		h = (h ^ x&0xff) * fnvPrime64
		x >>= 8
	}
	return h
}

// NumTiles returns the number of tiles in the configuration.
func (s *System) NumTiles() int {
	if s.CoresPerTile <= 1 {
		return s.NumCores
	}
	return s.NumCores / s.CoresPerTile
}

// WriteJSON serializes the configuration.
func (s *System) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// Load reads a configuration from JSON and validates it.
func Load(r io.Reader) (*System, error) {
	var s System
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("config: decoding: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// LoadFile reads a configuration from a JSON file.
func LoadFile(path string) (*System, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("config: %w", err)
	}
	defer f.Close()
	return Load(f)
}

// WestmereValidation returns the Table 2 configuration: the 6-core Westmere
// (Xeon L5640) system zsim is validated against, with its corresponding
// simulator settings (1000-cycle intervals, 6 weave threads).
func WestmereValidation() *System {
	s := &System{
		Name:         "westmere-6c",
		NumCores:     6,
		CoreModel:    CoreOOO,
		OOO:          core.OOOWestmere(),
		CoresPerTile: 1,
		FreqGHz:      2.27,
		L1I:          CacheConfig{SizeKB: 32, Ways: 4, Latency: 3},
		L1D:          CacheConfig{SizeKB: 32, Ways: 8, Latency: 4},
		L2:           CacheConfig{SizeKB: 256, Ways: 8, Latency: 7},
		L3:           CacheConfig{SizeKB: 12 * 1024, Ways: 16, Latency: 14, Banks: 6, MSHRs: 16},
		Network:      NetRing,
		NetHopCycles: 1, NetInjection: 5,
		MemControllers:   1,
		MemModel:         MemSimple,
		MemLatency:       120,
		MemServiceCycles: 4,
		IntervalCycles:   1000,
		Contention:       true,
		WeaveMem:         WeaveMemDDR3,
	}
	if err := s.Validate(); err != nil {
		panic("config: invalid Westmere preset: " + err.Error())
	}
	return s
}

// TiledChip returns the Table 3 configuration for the given number of tiles
// (4, 16 or 64 tiles = 64, 256 or 1024 cores): 16 cores per tile, a 4 MB
// shared L2 per tile, an 8 MB L3 bank per tile, a mesh NoC and one memory
// controller per tile pair.
func TiledChip(tiles int, model CoreModel) *System {
	if tiles < 1 {
		tiles = 1
	}
	s := &System{
		Name:         fmt.Sprintf("tiled-%dc", tiles*16),
		NumCores:     tiles * 16,
		CoreModel:    model,
		OOO:          core.OOOWestmere(),
		CoresPerTile: 16,
		FreqGHz:      2.0,
		L1I:          CacheConfig{SizeKB: 32, Ways: 4, Latency: 3},
		L1D:          CacheConfig{SizeKB: 32, Ways: 8, Latency: 4},
		L2:           CacheConfig{SizeKB: 4 * 1024, Ways: 8, Latency: 8},
		L3:           CacheConfig{SizeKB: 8 * 1024 * tiles, Ways: 16, Latency: 12, Banks: tiles, MSHRs: 16},
		Network:      NetMesh,
		NetHopCycles: 1, NetRouterStage: 2, NetInjection: 1,
		MemControllers:   max(tiles/2, 1),
		MemModel:         MemSimple,
		MemLatency:       120,
		MemServiceCycles: 4,
		IntervalCycles:   1000,
		Contention:       true,
		WeaveMem:         WeaveMemDDR3,
	}
	if err := s.Validate(); err != nil {
		panic("config: invalid tiled preset: " + err.Error())
	}
	return s
}

// SmallTest returns a small 4-core configuration used by unit tests and the
// quickstart example; it keeps cache sizes tiny so tests exercise evictions.
func SmallTest() *System {
	s := &System{
		Name:         "small-4c",
		NumCores:     4,
		CoreModel:    CoreIPC1,
		CoresPerTile: 1,
		FreqGHz:      2.0,
		L1I:          CacheConfig{SizeKB: 16, Ways: 4, Latency: 3},
		L1D:          CacheConfig{SizeKB: 16, Ways: 4, Latency: 4},
		L2:           CacheConfig{SizeKB: 128, Ways: 8, Latency: 7},
		L3:           CacheConfig{SizeKB: 1024, Ways: 16, Latency: 14, Banks: 2, MSHRs: 16},
		Network:      NetRing,
		NetHopCycles: 1, NetInjection: 3,
		MemControllers:   1,
		MemModel:         MemSimple,
		MemLatency:       100,
		MemServiceCycles: 6,
		IntervalCycles:   1000,
		Contention:       false,
		WeaveMem:         WeaveMemDDR3,
	}
	if err := s.Validate(); err != nil {
		panic("config: invalid small preset: " + err.Error())
	}
	return s
}
