package main

import (
	"fmt"
	"time"

	"zsim"
	"zsim/internal/boundweave"
	"zsim/internal/cache"
	"zsim/internal/config"
	"zsim/internal/core"
	"zsim/internal/engine"
	"zsim/internal/event"
	"zsim/internal/isa"
	"zsim/internal/memctrl"
	"zsim/internal/network"
	"zsim/internal/noc"
	"zsim/internal/stats"
	"zsim/internal/trace"
	"zsim/internal/virt"
)

// A layer kernel times one layer's hot public call in isolation. setup builds
// the layer once; the returned op performs a batch of calls and reports how
// many units of work it did and how long the calls alone took; done releases
// whatever setup started.
type kernel struct {
	name  string
	scale float64 // reported value = scale * ns per unit (1e-6 turns ns into ms)
	setup func() (op kernelOp, done func(), err error)
}

type kernelOp func() (units int, d time.Duration, err error)

const kernelSamples = 5

// runKernels measures every layer kernel: kernelSamples samples of at least
// sampleDur of calls each, reported as the median.
func runKernels(sampleDur time.Duration) (map[string]metric, error) {
	out := make(map[string]metric)
	for _, k := range layerKernels() {
		op, done, err := k.setup()
		if err != nil {
			return nil, fmt.Errorf("kernel %s: %w", k.name, err)
		}
		_, _, err = op() // warm-up: lazy allocation, freelists, worker spawn
		var samples []float64
		for s := 0; s < kernelSamples && err == nil; s++ {
			var units int
			var d time.Duration
			for d < sampleDur && err == nil {
				var u int
				var dd time.Duration
				u, dd, err = op()
				units += u
				d += dd
			}
			samples = append(samples, k.scale*float64(d.Nanoseconds())/float64(units))
		}
		if done != nil {
			done()
		}
		if err != nil {
			return nil, fmt.Errorf("kernel %s: %w", k.name, err)
		}
		out[k.name] = newMetric(k.name, samples)
	}
	return out, nil
}

// batch times n back-to-back calls of f.
func batch(n int, f func()) kernelOp {
	return func() (int, time.Duration, error) {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			f()
		}
		return n, time.Since(t0), nil
	}
}

// namdBlocks copies n dynamic blocks of a namd stream (NextBlock reuses its
// output block, so each is copied out with its addresses).
func namdBlocks(n int) (blocks []trace.DynBlock, instrs int) {
	p := trace.MustLookup("namd")
	p.BlocksPerThread = n + 1
	th := trace.New("namd", p, 1).NewThread(0)
	blocks = make([]trace.DynBlock, n)
	for i := range blocks {
		b := th.NextBlock()
		blocks[i] = *b
		blocks[i].Addrs = append([]uint64(nil), b.Addrs...)
		instrs += b.Decoded.Instrs
	}
	return blocks, instrs
}

// coreKernel times SimulateBlock with the memory ports stubbed out, so the
// core model alone is on the clock.
func coreKernel(name string, build func(reg *stats.Registry) core.Core) kernel {
	return kernel{name: name, scale: 1, setup: func() (kernelOp, func(), error) {
		blocks, instrs := namdBlocks(4096)
		c := build(stats.NewRegistry("kernel"))
		return func() (int, time.Duration, error) {
			t0 := time.Now()
			for i := range blocks {
				c.SimulateBlock(&blocks[i])
			}
			return instrs, time.Since(t0), nil
		}, nil, nil
	}}
}

// cacheKernel times Cache.Access from core 0's L1D on a built Westmere
// hierarchy, sweeping a footprint of the given number of lines: sized to sit
// in one level and overflow the one below it, every access ends at that
// level.
func cacheKernel(name string, lines uint64) kernel {
	return kernel{name: name, scale: 1, setup: func() (kernelOp, func(), error) {
		sys, err := westmereHierarchy()
		if err != nil {
			return nil, nil, err
		}
		l1 := sys.L1D[0]
		var req cache.Request
		var next, cycle uint64
		access := func() {
			req = cache.Request{LineAddr: 1<<30 + next, Cycle: cycle}
			l1.Access(&req)
			cycle += 4
			if next++; next == lines {
				next = 0
			}
		}
		for i := uint64(0); i < lines; i++ { // first sweep fills the level
			access()
		}
		return batch(4096, access), nil, nil
	}}
}

func westmereHierarchy() (*boundweave.System, error) {
	cfg := config.WestmereValidation()
	cfg.Contention = false
	return boundweave.BuildSystem(cfg)
}

// eventKernel times Engine.Enqueue + Run over a synthetic interval graph:
// 4 domains, 100k events in 2,000 chains of 50, a quarter of the edges
// crossing domains. The graph is rebuilt (off the clock) for every Run.
func eventKernel(name string, mode event.Mode) kernel {
	const (
		domains  = 4
		chains   = 2000
		chainLen = 50
	)
	return kernel{name: name, scale: 1, setup: func() (kernelOp, func(), error) {
		eng := event.NewEngine(domains)
		eng.SetMode(mode)
		for comp := 0; comp < domains; comp++ {
			eng.AssignComponent(comp, comp)
		}
		slab := event.NewSlab(4096)
		var roots []*event.Event
		exec := func(_ *event.Event, dispatch uint64) uint64 { return dispatch + 2 }
		op := func() (int, time.Duration, error) {
			slab.Reset()
			roots = roots[:0]
			rng := uint64(12345)
			for c := 0; c < chains; c++ {
				comp := c % domains
				cycle := uint64(c % 97)
				var prev *event.Event
				for i := 0; i < chainLen; i++ {
					rng ^= rng << 13
					rng ^= rng >> 7
					rng ^= rng << 17
					if rng%4 == 0 { // cross-domain edge
						comp = (comp + 1 + int(rng>>8)%(domains-1)) % domains
					}
					ev := slab.Alloc()
					ev.Comp, ev.MinCycle, ev.Exec, ev.Delay = comp, cycle, exec, 3
					if prev == nil {
						roots = append(roots, ev)
					} else {
						prev.AddChild(ev)
					}
					prev = ev
					cycle += 5
				}
			}
			t0 := time.Now()
			for _, ev := range roots {
				eng.Enqueue(ev)
			}
			eng.Run()
			return chains * chainLen, time.Since(t0), nil
		}
		return op, eng.Close, nil
	}}
}

// intervalKernel times one empty scheduling round at the given core count:
// one runnable thread per core, no recorded synchronization operations.
func intervalKernel(name string, cores int) kernel {
	return kernel{name: name, scale: 1, setup: func() (kernelOp, func(), error) {
		sched := virt.NewScheduler(cores)
		sched.AddWorkload(trace.New("idle", trace.DefaultParams(), cores))
		coreCycles := make([]uint64, cores)
		var asg, spare []virt.Assignment
		var now uint64
		return batch(64, func() {
			asg = sched.ScheduleIntervalInto(now, asg[:0])
			spare = sched.ResolveRound(asg, now, now+1000, coreCycles, spare[:0])
			now += 1000
			sched.EndInterval(now)
		}), nil, nil
	}}
}

// hotJobRun runs the zsimd-mix hot job at the facade: tiled-16 IPC1,
// fluidanimate, 2 threads x 25 blocks.
func hotJobRun(sim *zsim.Simulator) error {
	p, _ := zsim.LookupWorkload("fluidanimate")
	p.BlocksPerThread = zsimdJobBlocks
	sim.AddWorkload("fluidanimate", p, zsimdJobThreads)
	sim.SetHostThreads(1)
	_, err := sim.Run()
	return err
}

func layerKernels() []kernel {
	return []kernel{
		coreKernel("core.ooo_ns_per_instr", func(reg *stats.Registry) core.Core {
			return core.NewOOO(0, core.OOOWestmere(), core.MemPorts{}, reg)
		}),
		coreKernel("core.ipc1_ns_per_instr", func(reg *stats.Registry) core.Core {
			return core.NewIPC1(0, core.MemPorts{}, reg)
		}),
		{name: "trace.ns_per_block", scale: 1, setup: func() (kernelOp, func(), error) {
			p := trace.MustLookup("namd")
			p.BlocksPerThread = 1 << 40
			th := trace.New("namd", p, 1).NewThread(0)
			return batch(4096, func() { th.NextBlock() }), nil, nil
		}},
		{name: "isa.decode_ns_per_block", scale: 1, setup: func() (kernelOp, func(), error) {
			blk := &isa.BasicBlock{ID: 1, Addr: 0x400000, Instrs: []isa.Instruction{
				{Op: isa.OpLoad, Dst: isa.GPR(0), Src1: isa.RBP, Bytes: 4},
				{Op: isa.OpAdd, Dst: isa.GPR(1), Src1: isa.GPR(1), Src2: isa.GPR(0), Bytes: 3},
				{Op: isa.OpFMul, Dst: isa.XMM(0), Src1: isa.XMM(0), Src2: isa.XMM(1), Bytes: 4},
				{Op: isa.OpAddMem, Dst: isa.GPR(2), Src1: isa.GPR(2), Src2: isa.RBP, Bytes: 4},
				{Op: isa.OpStore, Dst: isa.GPR(1), Src1: isa.RBP, Bytes: 4},
				{Op: isa.OpMul, Dst: isa.GPR(3), Src1: isa.GPR(3), Src2: isa.GPR(2), Bytes: 4},
				{Op: isa.OpCmp, Src1: isa.GPR(3), Src2: isa.GPR(0), Bytes: 3},
				{Op: isa.OpJcc, Bytes: 2},
			}}
			return batch(1024, func() { isa.Decode(blk) }), nil, nil
		}},
		// Westmere: 32 KB L1D (512 lines), 256 KB L2 (4,096), 12 MB L3 (196,608).
		cacheKernel("cache.l1_hit_ns", 256),
		cacheKernel("cache.l2_hit_ns", 2048),
		cacheKernel("cache.l3_hit_ns", 32768),
		cacheKernel("cache.mem_ns", 393216),
		{name: "cache.write_shared_ns", scale: 1, setup: func() (kernelOp, func(), error) {
			sys, err := westmereHierarchy()
			if err != nil {
				return nil, nil, err
			}
			var req cache.Request
			var cycle uint64
			turn := 0
			// Two cores alternate stores to one line: every store finds the
			// line modified in the other core's L1 and goes through the
			// directory. A read of a neighbouring line rides beside each write.
			return batch(2048, func() {
				req = cache.Request{LineAddr: 1 << 30, Write: true, CoreID: turn, Cycle: cycle}
				sys.L1D[turn].Access(&req)
				req = cache.Request{LineAddr: 1<<30 + 1, CoreID: turn, Cycle: cycle}
				sys.L1D[turn].Access(&req)
				turn ^= 1
				cycle += 10
			}), nil, nil
		}},
		{name: "boundweave.recorder_ns_per_access", scale: 1, setup: func() (kernelOp, func(), error) {
			rec := boundweave.NewRecorder(0, map[int]bool{1: true, 2: true})
			var hops []cache.Hop
			var cycle uint64
			return func() (int, time.Duration, error) {
				const n = 512 // one interval's worth, then the weave phase's Reset
				t0 := time.Now()
				for i := 0; i < n; i++ {
					hops = append(hops[:0],
						cache.Hop{Comp: 5, Cycle: cycle, Latency: 7},
						cache.Hop{Comp: 1, Cycle: cycle + 7, Latency: 14},
						cache.Hop{Comp: 2, Cycle: cycle + 21, Latency: 120})
					hops = rec.RecordAccess(0, cycle, false, hops)
					cycle += 30
				}
				rec.Reset()
				return n, time.Since(t0), nil
			}, nil, nil
		}},
		eventKernel("event.serial_ns_per_event", event.ModeSerial),
		eventKernel("event.par2_ns_per_event", event.ModeParallel),
		{name: "noc.router_ns_per_schedule", scale: 1, setup: func() (kernelOp, func(), error) {
			mesh := network.NewMesh(2, 2, 1, 2, 1)
			fab := noc.NewFabric(mesh, noc.Config{PacketFlits: 18, CyclesPerFlit: 1, QueueDepth: 8, MemHopLatency: 1}, stats.NewRegistry("kernel"))
			r := fab.Router(0)
			var cycle uint64
			port := 0
			// Packets arrive every 10 cycles on alternating ports of one
			// router: 18-flit trains back each port up into its bounded queue.
			return batch(4096, func() {
				r.Schedule(port, cycle)
				port ^= 1
				cycle += 10
			}), nil, nil
		}},
		{name: "memctrl.ddr3_ns_per_request", scale: 1, setup: func() (kernelOp, func(), error) {
			d := memctrl.NewDDR3("kernel", memctrl.DefaultDDR3Timing())
			var cycle, line uint64
			return batch(4096, func() {
				cycle += 20
				line += 97
				d.RequestLatency(line, cycle, line%4 == 0)
			}), nil, nil
		}},
		{name: "engine.pool_run_ns", scale: 1, setup: func() (kernelOp, func(), error) {
			pool := engine.NewPool(2)
			noop := func(int) {}
			return batch(256, func() { pool.Run(2, noop) }), pool.Close, nil
		}},
		intervalKernel("virt.interval_ns_6c", 6),
		intervalKernel("virt.interval_ns_64c", 64),
		intervalKernel("virt.interval_ns_1024c", 1024),
		{name: "zsim.construct_ms", scale: 1e-6, setup: func() (kernelOp, func(), error) {
			return func() (int, time.Duration, error) {
				t0 := time.Now()
				sim, err := zsim.New(config.TiledChip(1, config.CoreIPC1))
				if err == nil {
					err = hotJobRun(sim)
				}
				return 1, time.Since(t0), err
			}, nil, nil
		}},
		{name: "zsim.reset_ms", scale: 1e-6, setup: func() (kernelOp, func(), error) {
			sim, err := zsim.New(config.TiledChip(1, config.CoreIPC1))
			if err != nil {
				return nil, nil, err
			}
			sim.SetReusable(true)
			if err := hotJobRun(sim); err != nil {
				return nil, nil, err
			}
			return func() (int, time.Duration, error) {
				t0 := time.Now()
				err := sim.Reset(nil)
				if err == nil {
					err = hotJobRun(sim)
				}
				return 1, time.Since(t0), err
			}, sim.Close, nil
		}},
	}
}
