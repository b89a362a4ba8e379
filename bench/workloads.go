package main

import (
	"zsim/internal/config"
	"zsim/internal/trace"
)

// proc is one simulated process of a workload: a program, the seed of its
// threads' dynamic streams, its thread count and an optional core pinning.
//
// params.Seed is the program's own and stays the registry's: it generates the
// static code, i.e. which benchmark this is. streamSeed comes from -seed and
// drives what the threads do with that code (block order, addresses, branch
// outcomes): the same binary on different input data. Reseeding the code as
// well moves sim_mips by +-12% from seed to seed on westmere-ooo, because 80%
// of the executed blocks come from 32 randomly drawn static blocks; a
// benchmark that has to agree with itself across seeds cannot do that.
type proc struct {
	name       string
	params     trace.Params
	streamSeed uint64
	threads    int
	pin        []int // nil = any core
}

// simWorkload is one of the five simulation workloads: a chip, the processes
// that run on it, and how tightly its signature must repeat.
type simWorkload struct {
	name string
	why  string
	cfg  func() *config.System
	// procs builds the processes for one rep; seed feeds every process's
	// streamSeed.
	procs func(seed uint64) []proc
	// exact workloads are inside the determinism envelope: their signature
	// must be bit-equal across reps. The others run shared data at
	// GOMAXPROCS=2 and are held to instrsTol and cyclesTol, shares of the
	// window's median (README "Signature tolerances" records how they were
	// measured).
	exact                bool
	instrsTol, cyclesTol float64
	// peer names a workload whose instrs and cycles this one must agree with
	// within tolerance (the two hotspot64 variants run identical inputs).
	peer string
}

// Rep sizes, in dynamic basic blocks per thread. They are sized so one run of
// BENCHMARK.json's run_seconds holds >=15 reps (>=11 for tiled1024) on the
// 2-vCPU reference host; see README.md "Where this departs from the issue".
const (
	westmereBlocks = 60000
	hotspotBlocks  = 500
	tiledBlocks    = 40
	oversubServer  = 2500
	oversubClient  = 2000
)

// streamSeed derives a process's stream seed from the run seed and the
// process index, so no two processes of a rep share a stream.
func streamSeed(seed uint64, idx int) uint64 { return seed*1000003 + uint64(idx) + 1 }

func westmereOOO() *simWorkload {
	return &simWorkload{
		name: "westmere-ooo",
		why:  "OOO core model and private-cache path do ~all the work; weave, recorder, NoC and arbitration do none; bit-equal signature",
		cfg: func() *config.System {
			cfg := config.WestmereValidation()
			cfg.Contention = false
			// The determinism envelope needs a shared cache that never evicts:
			// a victim chosen among lines of two cores depends on which host
			// thread arrived first. The six processes touch ~14 MB, and on the
			// stock 12 MB, 16-way L3 one rep in three differed by one L3 miss
			// for some seeds. Four times the size at twice the ways leaves
			// every set half empty; the latency stays the stock one.
			cfg.L3.SizeKB *= 4
			cfg.L3.Ways *= 2
			return cfg
		},
		procs: func(seed uint64) []proc {
			var ps []proc
			for i, name := range []string{"namd", "namd", "gcc", "gcc", "mcf", "mcf"} {
				p := trace.MustLookup(name)
				p.AddrSpace = uint64(i + 1)
				p.BlocksPerThread = westmereBlocks
				p.ScaleWork = false
				ps = append(ps, proc{name: name, params: p, streamSeed: streamSeed(seed, i), threads: 1, pin: []int{i}})
			}
			return ps
		},
		exact: true,
	}
}

// hotspotConfig is the under-provisioned 64-core mesh chip: 4-byte links make
// a line packet an 18-flit train, so the NoC saturates well before the banks.
func hotspotConfig() *config.System {
	cfg := config.TiledChip(4, config.CoreIPC1)
	cfg.Contention = true
	cfg.NOCContention = true
	cfg.NOCLinkBytes = 4
	cfg.WeaveDomains = 4
	return cfg
}

// hotspotProcs is 64 threads hammering a 4 KB write-shared region: upgrade
// misses and invalidations keep forcing trips through the mesh to a few L3
// banks. Private data stays L2-resident so coherence traffic, not DRAM,
// dominates.
func hotspotProcs(seed uint64) []proc {
	p := trace.DefaultParams()
	p.BlocksPerThread = hotspotBlocks
	p.ScaleWork = false
	p.MemFraction = 0.4
	p.StoreFraction = 0.5
	p.SharedWorkingSet = 4 << 10
	p.SharedFraction = 0.7
	p.WorkingSet = 128 << 10
	return []proc{{name: "hotspot", params: p, streamSeed: streamSeed(seed, 0), threads: 64}}
}

func hotspot64() *simWorkload {
	return &simWorkload{
		name:      "hotspot64",
		why:       "weave + NoC routers are 60-70% of host time, weave mode left at the code's default",
		cfg:       hotspotConfig,
		procs:     hotspotProcs,
		peer:      "hotspot64-serial",
		cyclesTol: 0.15,
	}
}

func hotspot64Serial() *simWorkload {
	return &simWorkload{
		name: "hotspot64-serial",
		why:  "hotspot64's inputs with the serial weave: a gain for one weave mode that costs the other shows as a move in one only",
		cfg: func() *config.System {
			cfg := hotspotConfig()
			cfg.WeaveModeKind = config.WeaveSerial
			return cfg
		},
		procs:     hotspotProcs,
		peer:      "hotspot64",
		cyclesTol: 0.15,
	}
}

func tiled1024() *simWorkload {
	return &simWorkload{
		name: "tiled1024",
		why:  "the paper's 1,024-core chip: per-interval costs (barrier, ResolveRound, recorder drain, chain build) and construction dominate",
		cfg: func() *config.System {
			cfg := config.TiledChip(64, config.CoreIPC1)
			cfg.Contention = true
			return cfg
		},
		procs: func(seed uint64) []proc {
			p := trace.MustLookup("ocean")
			p.BlocksPerThread = tiledBlocks
			p.ScaleWork = false
			// ocean's 3% serial section is one thread's ~1,200-block critical
			// path with 1,023 cores idle; its length in simulated cycles, and
			// with it the whole rep, swings +-12% with the stream seed. The
			// parallel phase alone repeats within +-3%.
			p.SerialFraction = 0
			return []proc{{name: "ocean", params: p, streamSeed: streamSeed(seed, 0), threads: 1024}}
		},
		cyclesTol: 0.15,
	}
}

func oversubCS() *simWorkload {
	return &simWorkload{
		name: "oversub-cs",
		why:  "virt does the distinctive work: mid-interval joins, lock hand-offs, syscall wakes, bound rounds >> intervals",
		cfg: func() *config.System {
			cfg := config.SmallTest()
			cfg.NumCores = 8
			cfg.CoreModel = config.CoreIPC1
			cfg.Contention = true
			cfg.WeaveDomains = 4
			return cfg
		},
		procs: func(seed uint64) []proc {
			server := trace.DefaultParams()
			server.AddrSpace = 1
			server.BlocksPerThread = oversubServer
			server.MemFraction = 0.35
			server.SharedWorkingSet = 4 << 20
			server.SharedFraction = 0.3
			server.LockEvery = oversubServer / 60 // request-queue locks, every ~40 blocks
			server.LockHoldBlocks = 2
			server.NumLocks = 4
			server.BlockedSyscallEvery = oversubServer / 20 // epoll/recv-style waits, every ~125
			server.BlockedSyscallCycles = 8000

			client := trace.DefaultParams()
			client.AddrSpace = 2
			client.BlocksPerThread = oversubClient
			client.MemFraction = 0.2
			client.BlockedSyscallEvery = oversubClient / 10
			client.BlockedSyscallCycles = 4000
			return []proc{
				{name: "server", params: server, streamSeed: streamSeed(seed, 0), threads: 16},
				{name: "client", params: client, streamSeed: streamSeed(seed, 1), threads: 4},
			}
		},
		cyclesTol: 0.065,
	}
}

// simWorkloads lists the simulation workloads in reporting order.
func simWorkloads() []*simWorkload {
	return []*simWorkload{westmereOOO(), hotspot64(), hotspot64Serial(), tiled1024(), oversubCS()}
}

// findSimWorkload returns the simulation workload of that name, or nil.
func findSimWorkload(name string) *simWorkload {
	for _, w := range simWorkloads() {
		if w.name == name {
			return w
		}
	}
	return nil
}

const zsimdMixName = "zsimd-mix"

const zsimdMixWhy = "construction, Reset and HTTP+JSON dominate and simulation is ~nothing; hot and cold jobs exercise pool hit and miss side by side"

// workloadNames lists all six workloads in reporting order.
func workloadNames() []string {
	var names []string
	for _, w := range simWorkloads() {
		names = append(names, w.name)
	}
	return append(names, zsimdMixName)
}
