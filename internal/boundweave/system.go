// Package boundweave implements the bound-weave two-phase parallel simulation
// algorithm that is the paper's second contribution (Section 3.2), together
// with the system builder that assembles cores, cache hierarchies, networks
// and memory controllers from a configuration.
//
// Simulation proceeds in small intervals (1,000-10,000 cycles). In the bound
// phase, every scheduled core is simulated in parallel assuming zero-load
// latencies, bounded in skew by the interval barrier, while recording the
// hierarchy hops of every access that misses beyond the private cache levels.
// In the weave phase, those hops become events that are replayed in full
// (cycle, sequence) order, applying detailed contention models (pipelined L3 banks with limited MSHRs, DDR3 memory controllers).
// The extra latency observed for each core's accesses is then fed back into
// the core's clocks before the next interval.
package boundweave

import (
	"fmt"

	"zsim/internal/arena"
	"zsim/internal/cache"
	"zsim/internal/config"
	"zsim/internal/core"
	"zsim/internal/memctrl"
	"zsim/internal/network"
	"zsim/internal/noc"
	"zsim/internal/stats"
)

// System is the fully built simulated chip: cores, hierarchy, network and
// memory, plus the component-ID maps the weave phase needs.
type System struct {
	Cfg  *config.System
	Root *stats.Registry

	Cores []core.Core
	L1I   []*cache.Cache
	L1D   []*cache.Cache
	L2    []*cache.Cache // one per tile (or per core when CoresPerTile == 1)
	Banks []*cache.Cache // L3 banks
	L3    *cache.Banked
	Mems  []memctrl.Controller
	Net   network.Model

	// Fabric is the weave-phase NoC contention subsystem (nil unless the
	// configuration enables both Contention and NOCContention): one router
	// per topology node, each a weave component of its own.
	Fabric *noc.Fabric
	// RouterComp maps topology node -> the node's router component ID (only
	// when Fabric is non-nil).
	RouterComp []int

	// Component IDs.
	CoreComp []int
	BankComp []int
	MemComp  []int
	// SharedComp marks component IDs whose accesses are retimed in the weave
	// phase (L3 banks and memory controllers). Router components are not in
	// it: a traversal only matters when the bank or controller behind it is
	// already weave-retimed.
	SharedComp map[int]bool
}

// BuildSystem constructs the simulated chip described by the configuration.
// One construction arena, hung off the root stats registry, feeds every
// component's bulk state (registry nodes, cache sets and stripes, predictor
// tables), so building a 1,024-core chip performs a handful of large chunk
// allocations instead of millions of small ones.
func BuildSystem(cfg *config.System) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	root := stats.NewRegistryIn(cfg.Name, arena.New())
	sys := &System{
		Cfg:        cfg,
		Root:       root,
		SharedComp: make(map[int]bool),
	}

	nextComp := 0
	alloc := func() int { v := nextComp; nextComp++; return v }

	// Network model (zero-load).
	tiles := cfg.NumTiles()
	switch cfg.Network {
	case config.NetRing:
		sys.Net = network.NewRing(tiles, cfg.NetHopCycles, cfg.NetInjection)
	case config.NetMesh:
		sys.Net = network.NewMeshForTiles(tiles, cfg.NetHopCycles, cfg.NetRouterStage, cfg.NetInjection)
	default:
		sys.Net = &network.Flat{Cycles: cfg.NetInjection + cfg.NetHopCycles}
	}

	// Memory controllers.
	memReg := root.Child("mem")
	var memLevels []cache.Level
	for m := 0; m < cfg.MemControllers; m++ {
		comp := alloc()
		name := fmt.Sprintf("mem-%d", m)
		var ctrl memctrl.Controller
		switch cfg.MemModel {
		case config.MemMD1:
			ctrl = memctrl.NewMD1(comp, cfg.MemLatency, cfg.MemServiceCycles, memReg.Child(name))
		default:
			ctrl = memctrl.NewSimple(comp, cfg.MemLatency, memReg.Child(name))
		}
		sys.Mems = append(sys.Mems, ctrl)
		sys.MemComp = append(sys.MemComp, comp)
		sys.SharedComp[comp] = true
		memLevels = append(memLevels, ctrl)
	}
	memRouter := cache.NewMemRouter(memLevels, cfg.NetHopCycles)

	// L3 banks (fully shared, inclusive, one directory over all L2s).
	l3Reg := root.Child("l3")
	bankSizeKB := cfg.L3.SizeKB / cfg.L3.Banks
	if bankSizeKB < 1 {
		bankSizeKB = 1
	}
	for b := 0; b < cfg.L3.Banks; b++ {
		comp := alloc()
		bank := cache.New(cache.Config{
			SizeKB:  bankSizeKB,
			Ways:    cfg.L3.Ways,
			Latency: cfg.L3.Latency,
			MSHRs:   cfg.L3.MSHRs,
		}, comp, l3Reg.ChildIdx("l3b", b))
		bank.SetParent(memRouter)
		sys.Banks = append(sys.Banks, bank)
		sys.BankComp = append(sys.BankComp, comp)
		sys.SharedComp[comp] = true
	}
	sys.L3 = cache.NewBanked(sys.Banks, cfg.NetInjection+cfg.NetHopCycles)
	// Distance-dependent latency: from the requesting core's tile to the
	// bank's tile, using the configured topology.
	coresPerTile := cfg.CoresPerTile
	net := sys.Net
	banksPerTile := maxInt(cfg.L3.Banks/tiles, 1)
	sys.L3.SetDistanceFunc(func(coreID, bank int) uint32 {
		srcTile := coreID / coresPerTile
		dstTile := bank / banksPerTile
		return net.Latency(srcTile, dstTile)
	})

	// L2 caches: one per tile (shared within the tile) or one per core.
	l2Reg := root.Child("l2")
	numL2 := tiles
	for i := 0; i < numL2; i++ {
		comp := alloc()
		l2 := cache.New(cache.Config{
			SizeKB:  cfg.L2.SizeKB,
			Ways:    cfg.L2.Ways,
			Latency: cfg.L2.Latency,
			MSHRs:   cfg.L2.MSHRs,
		}, comp, l2Reg.ChildIdx("l2", i))
		l2.SetParent(sys.L3)
		sys.L2 = append(sys.L2, l2)
	}
	// Register every L2 as a child of every L3 bank, in the same order, so
	// directory indices agree across banks.
	for _, bank := range sys.Banks {
		for _, l2 := range sys.L2 {
			bank.AddChild(l2)
		}
	}

	// Per-core L1s and cores.
	coreReg := root.Child("cores")
	for cID := 0; cID < cfg.NumCores; cID++ {
		tile := cID / coresPerTile
		l1iComp := alloc()
		l1dComp := alloc()
		l1i := cache.New(cache.Config{
			SizeKB: cfg.L1I.SizeKB, Ways: cfg.L1I.Ways, Latency: cfg.L1I.Latency,
		}, l1iComp, coreReg.ChildIdx("l1i", cID))
		l1d := cache.New(cache.Config{
			SizeKB: cfg.L1D.SizeKB, Ways: cfg.L1D.Ways, Latency: cfg.L1D.Latency,
		}, l1dComp, coreReg.ChildIdx("l1d", cID))
		l2 := sys.L2[tile]
		l1i.SetParent(l2)
		l1d.SetParent(l2)
		l2.AddChild(l1i)
		l2.AddChild(l1d)
		sys.L1I = append(sys.L1I, l1i)
		sys.L1D = append(sys.L1D, l1d)

		coreComp := alloc()
		sys.CoreComp = append(sys.CoreComp, coreComp)
		ports := core.MemPorts{L1I: l1i, L1D: l1d}
		reg := coreReg.ChildIdx("core", cID)
		var c core.Core
		switch cfg.CoreModel {
		case config.CoreIPC1:
			c = core.NewIPC1(cID, ports, reg)
		default:
			c = core.NewOOO(cID, core.OOOConfig(cfg.OOO), ports, reg)
		}
		sys.Cores = append(sys.Cores, c)
	}

	// Weave-phase NoC contention: one router component per topology node,
	// allocated after every pre-existing component so that enabling the
	// subsystem never renumbers cores, banks or controllers (and disabling it
	// leaves the component table bit-identical to a build without it).
	if cfg.Contention && cfg.NOCContention {
		topo, ok := sys.Net.(network.Topology)
		if !ok {
			return nil, fmt.Errorf("boundweave: nocContention requires a routed topology, %s is not one", sys.Net.Name())
		}
		nodes := topo.Nodes()
		// A 64 B line plus an 8 B header, split into link-width flits.
		packetFlits := (cache.LineSize + 8 + cfg.NOCLinkBytes - 1) / cfg.NOCLinkBytes
		queueDepth := cfg.NOCQueueDepth
		if queueDepth < 0 {
			queueDepth = 0 // negative config value = unbounded
		}
		sys.Fabric = noc.NewFabric(topo, noc.Config{
			PacketFlits:   packetFlits,
			CyclesPerFlit: 1,
			QueueDepth:    queueDepth,
			MemHopLatency: cfg.NetHopCycles,
		}, root.Child("noc"))
		sys.RouterComp = arena.Take[int](root.Arena(), nodes)
		for n := range sys.RouterComp {
			sys.RouterComp[n] = alloc()
		}
		// Traversal -> topology-node resolvers. They use the same tile
		// placement as the zero-load distance function, normalized into the
		// node range so the weave translation can index router tables
		// directly.
		sys.L3.SetNetNodeFunc(func(coreID, bank int) (src, dst int) {
			return (coreID / coresPerTile) % nodes, (bank / banksPerTile) % nodes
		})
		numCtrls := len(sys.Mems)
		l3 := sys.L3
		memRouter.SetNetNodeFunc(func(lineAddr uint64, ctrl int) (src, dst int) {
			// src is the tile of the bank that owns (and is forwarding) the
			// line: the router whose memory-egress port the weave phase
			// occupies — the single hop the bound phase charges, so the
			// traversal is NOT routed across the mesh. dst records the
			// controller's home node in the hop for trace consumers only.
			return (l3.BankOf(lineAddr) / banksPerTile) % nodes, ctrl * nodes / numCtrls
		})
	}

	return sys, nil
}

// Reset rewinds the built system to its just-constructed state for warm
// reuse: every stateful component (cores, caches, memory controllers, NoC
// routers) restores its architectural and timing state and zeroes its own
// statistics; the registry tree holds no counts. The construction arena is
// deliberately NOT reset — it owns the components' live backing storage.
// Core recorders and observers are detached by the core resets; the caller
// (Simulator.Reset) re-installs them.
func (s *System) Reset() {
	for _, c := range s.Cores {
		c.Reset()
	}
	for _, c := range s.L1I {
		c.Reset()
	}
	for _, c := range s.L1D {
		c.Reset()
	}
	for _, c := range s.L2 {
		c.Reset()
	}
	for _, b := range s.Banks {
		b.Reset()
	}
	for _, m := range s.Mems {
		if r, ok := m.(interface{ Reset() }); ok {
			r.Reset()
		}
	}
	if s.Fabric != nil {
		s.Fabric.Reset()
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Metrics aggregates the system's counters into the harness's Metrics form.
func (s *System) Metrics() *stats.Metrics {
	m := &stats.Metrics{
		Workload: "",
		Model:    string(s.Cfg.CoreModel),
		Cores:    len(s.Cores),
	}
	for _, c := range s.Cores {
		m.Instrs += c.Instrs()
		m.Uops += c.Uops()
		m.CoreCycles += c.Cycle()
		if c.Cycle() > m.Cycles {
			m.Cycles = c.Cycle()
		}
		_, miss := c.BranchStats()
		m.BranchMisses += miss
	}
	for _, l1 := range s.L1I {
		m.L1IMisses += l1.Misses.Get()
	}
	for _, l1 := range s.L1D {
		m.L1DMisses += l1.Misses.Get()
	}
	for _, l2 := range s.L2 {
		m.L2Misses += l2.Misses.Get()
	}
	for _, b := range s.Banks {
		m.L3Misses += b.Misses.Get()
	}
	for _, mc := range s.Mems {
		m.MemReads += mc.Reads()
		m.MemWrites += mc.Writes()
	}
	m.Finalize()
	return m
}
