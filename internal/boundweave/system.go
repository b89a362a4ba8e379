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
	"zsim/internal/event"
	"zsim/internal/memctrl"
	"zsim/internal/network"
	"zsim/internal/noc"
	"zsim/internal/stats"
)

// System is the fully built simulated chip: cores, hierarchy, network and
// memory, plus the weave's component table.
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

	// comps is the weave's component table, indexed by component ID: the
	// memory controllers, then the L3 banks, then (when Fabric is non-nil)
	// one router per topology node. Only these components have IDs, so only
	// they record hops. Each entry is the component's contention model; the
	// table is empty unless the configuration enables Contention.
	comps []component
	// exec is runEvent, bound once: the executor every weave event carries.
	exec event.Executor
}

// A component is one weave component's contention model. run executes a
// weave event on it; Reset restores its just-built state, counters
// included. Only the single-threaded weave drives a model.
type component interface {
	run(ev *event.Event, dispatch uint64) uint64
	Reset()
}

// memModel runs a memory event, whose Arg is the line, on a controller's DRAM
// model, passing the event's Flag as the request's write bit.
type memModel struct{ dram memctrl.ContentionModel }

func (m memModel) run(ev *event.Event, dispatch uint64) uint64 {
	return dispatch + m.dram.RequestLatency(ev.Arg, dispatch, ev.Flag)
}

func (m memModel) Reset() { m.dram.Reset() }

// routerModel runs a router event, whose Arg is the output port.
type routerModel struct{ *noc.Router }

func (r routerModel) run(ev *event.Event, dispatch uint64) uint64 {
	return r.Schedule(int(ev.Arg), dispatch)
}

// BuildSystem constructs the simulated chip described by the configuration.
// One construction arena, hung off the root stats registry, feeds every
// component's bulk state (registry nodes, core objects, cache sets and
// stripes), so building a 1,024-core chip performs a handful of large chunk
// allocations instead of millions of small ones. A core's predictor table
// and OOO window are not built here but on its first block.
func BuildSystem(cfg *config.System) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	root := stats.NewRegistryIn(cfg.Name, arena.New())
	sys := &System{Cfg: cfg, Root: root}
	sys.exec = sys.runEvent
	// add gives a component the next ID and, when the weave has contention
	// models at all, its model.
	ids := 0
	add := func(newModel func() component) int {
		if cfg.Contention {
			sys.comps = append(sys.comps, newModel())
		}
		ids++
		return ids - 1
	}

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
		comp := add(func() component {
			if cfg.WeaveMem == config.WeaveMemCycleDriven {
				return memModel{memctrl.NewCycleDriven(memctrl.DefaultDDR3Timing())}
			}
			return memModel{memctrl.NewDDR3("weave-mem", memctrl.DefaultDDR3Timing())}
		})
		name := fmt.Sprintf("mem-%d", m)
		var ctrl memctrl.Controller
		switch cfg.MemModel {
		case config.MemMD1:
			ctrl = memctrl.NewMD1(comp, cfg.MemLatency, cfg.MemServiceCycles, memReg.Child(name))
		default:
			ctrl = memctrl.NewSimple(comp, cfg.MemLatency, memReg.Child(name))
		}
		sys.Mems = append(sys.Mems, ctrl)
		memLevels = append(memLevels, ctrl)
	}
	memRouter := cache.NewMemRouter(memLevels, cfg.NetHopCycles)

	// Every cache's configuration, and so the chip's total set count: the
	// slot tables of all its caches come from one exactly sized chunk.
	coresPerTile := cfg.CoresPerTile
	bankCfg := cache.Config{
		SizeKB:  max(cfg.L3.SizeKB/cfg.L3.Banks, 1),
		Ways:    cfg.L3.Ways,
		Latency: cfg.L3.Latency,
	}
	l2Cfg := cache.Config{
		SizeKB:  cfg.L2.SizeKB,
		Ways:    cfg.L2.Ways,
		Latency: cfg.L2.Latency,
		Private: coresPerTile == 1,
	}
	l1iCfg := cache.Config{SizeKB: cfg.L1I.SizeKB, Ways: cfg.L1I.Ways, Latency: cfg.L1I.Latency, Private: true}
	l1dCfg := cache.Config{SizeKB: cfg.L1D.SizeKB, Ways: cfg.L1D.Ways, Latency: cfg.L1D.Latency, Private: true}
	arena.Reserve[uint32](root.Arena(), cfg.L3.Banks*bankCfg.Sets()+tiles*l2Cfg.Sets()+
		cfg.NumCores*(l1iCfg.Sets()+l1dCfg.Sets()))

	// L3 banks (fully shared, inclusive, one directory over all L2s).
	l3Reg := root.Child("l3")
	for b := 0; b < cfg.L3.Banks; b++ {
		comp := add(func() component {
			return NewBankModel(cfg.L3.Latency, cfg.L3.MSHRs, uint64(cfg.MemLatency))
		})
		bank := cache.New(bankCfg, comp, l3Reg.ChildIdx("l3b", b))
		bank.SetParent(memRouter)
		sys.Banks = append(sys.Banks, bank)
	}
	// Distance-dependent latency: from the requesting core's tile to the
	// bank's tile, using the configured topology.
	net := sys.Net
	banksPerTile := max(cfg.L3.Banks/tiles, 1)
	sys.L3 = cache.NewBanked(sys.Banks, func(coreID, bank int) uint32 {
		srcTile := coreID / coresPerTile
		dstTile := bank / banksPerTile
		return net.Latency(srcTile, dstTile)
	})

	// L2 caches: one per tile (shared within the tile) or one per core. A
	// per-core L2, like every L1, is private: it takes one lock stripe.
	l2Reg := root.Child("l2")
	for i := 0; i < tiles; i++ {
		l2 := cache.New(l2Cfg, -1, l2Reg.ChildIdx("l2", i))
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
		l1i := cache.New(l1iCfg, -1, coreReg.ChildIdx("l1i", cID))
		l1d := cache.New(l1dCfg, -1, coreReg.ChildIdx("l1d", cID))
		l2 := sys.L2[tile]
		l1i.SetParent(l2)
		l1d.SetParent(l2)
		l2.AddChild(l1i)
		l2.AddChild(l1d)
		sys.L1I = append(sys.L1I, l1i)
		sys.L1D = append(sys.L1D, l1d)

		ports := core.MemPorts{L1I: l1i, L1D: l1d}
		reg := coreReg.ChildIdx("core", cID)
		var c core.Core
		switch cfg.CoreModel {
		case config.CoreIPC1:
			c = core.NewIPC1(cID, ports, reg)
		default:
			c = core.NewOOO(cID, cfg.OOO, ports, reg)
		}
		sys.Cores = append(sys.Cores, c)
	}

	// Weave-phase NoC contention: one router component per topology node,
	// numbered after the controllers and banks, so node n's router is
	// component routerComp(n).
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
		for n := range nodes {
			add(func() component { return routerModel{sys.Fabric.Router(n)} })
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
// reuse: every stateful component (cores, caches, memory controllers, and
// the weave components' bank, DRAM and router models) restores its
// architectural and timing state and zeroes its own statistics; the
// registry tree holds no counts. The construction arena is
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
	for _, m := range s.comps {
		m.Reset()
	}
}

// routerComp returns the component ID of topology node n's router.
func (s *System) routerComp(n int) int { return len(s.Mems) + len(s.Banks) + n }

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
