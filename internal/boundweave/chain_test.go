package boundweave

import (
	"testing"

	"zsim/internal/cache"
	"zsim/internal/config"
	"zsim/internal/event"
	"zsim/internal/network"
	"zsim/internal/trace"
	"zsim/internal/virt"
)

// chainAccess is one hand-built access of a chain-shape case: its hop trace
// as the bound phase records it (bank, controller and network hops only),
// the number of model events it must build, its first event's lower bound,
// and whether that event hangs under the core's latest load (false: it is
// enqueued).
type chainAccess struct {
	issue    uint64
	write    bool
	hops     []cache.Hop
	events   int
	firstMin uint64
	gated    bool
}

// hopKit builds hops on one chip's components, all for line 64.
type hopKit struct{ bankComp, memComp int }

func (k hopKit) net(kind cache.HopKind, src, dst int16, cycle uint64, lat uint32) cache.Hop {
	return cache.Hop{Comp: -1, Kind: kind, Src: src, Dst: dst, Line: 64, Cycle: cycle, Latency: lat}
}

func (k hopKit) at(comp int, kind cache.HopKind, cycle uint64, lat uint32) cache.Hop {
	return cache.Hop{Comp: comp, Kind: kind, Line: 64, Cycle: cycle, Latency: lat}
}

// meshNOC is a four-core chip, one core per tile, on a 2x2 mesh with NoC
// contention, so chains can mix router, bank and memory events.
func meshNOC() *config.System {
	cfg := config.SmallTest()
	cfg.NumCores = 4
	cfg.Contention = true
	cfg.Network = config.NetMesh
	cfg.NOCContention = true
	cfg.NOCLinkBytes = 4
	return cfg
}

// newChainSim builds a simulator on the meshNOC chip.
func newChainSim(t *testing.T) *Simulator {
	t.Helper()
	cfg := meshNOC()
	sys, err := BuildSystem(cfg)
	if err != nil {
		t.Fatalf("BuildSystem: %v", err)
	}
	sched := virt.NewScheduler(cfg.NumCores)
	sched.AddWorkload(trace.New("chain", trace.DefaultParams(), 1))
	return NewSimulator(sys, sched, Options{HostThreads: 1, Seed: 1})
}

// TestChainShape records hand-built accesses on one core and builds their
// chains the way runWeave does. Each access must build exactly one event per
// contended hop (one per router along a route), its first event must take
// max(its hop's bound, the issue cycle, the latest load's zero-load
// completion) as its lower bound and hang under the latest load's last event,
// and the core's feedback must equal the literal recorded when every access
// still built a core-side root and response event around its model events.
func TestChainShape(t *testing.T) {
	for _, c := range []struct {
		name     string
		accesses func(k hopKit, inj uint64) []chainAccess
		feedback uint64
	}{
		{"load-store-load-noc", func(k hopKit, inj uint64) []chainAccess {
			return []chainAccess{
				// Routers 0 and 1 on the way to node 3, the bank, the
				// memory-egress link and the controller.
				{issue: 100, hops: []cache.Hop{k.net(cache.HopNet, 0, 3, 114, 5), k.at(k.bankComp, cache.HopMiss, 119, 20),
					k.net(cache.HopNetMem, 3, 0, 139, 1), k.at(k.memComp, cache.HopMem, 140, 30)},
					events: 5, firstMin: 114 + inj},
				{issue: 110, write: true, hops: []cache.Hop{k.net(cache.HopNet, 0, 1, 124, 3), k.at(k.bankComp, cache.HopHit, 127, 20)},
					events: 2, firstMin: 170, gated: true},
				// The store above gates nothing.
				{issue: 130, hops: []cache.Hop{k.net(cache.HopNet, 0, 3, 144, 5), k.at(k.bankComp, cache.HopHit, 149, 20)},
					events: 3, firstMin: 170, gated: true},
			}
		}, 54},
		{"store-only", func(k hopKit, inj uint64) []chainAccess {
			return []chainAccess{
				{issue: 200, write: true, hops: []cache.Hop{k.at(k.bankComp, cache.HopMiss, 214, 20), k.at(k.memComp, cache.HopMem, 234, 30)},
					events: 2, firstMin: 214},
				{issue: 210, write: true, hops: []cache.Hop{k.at(k.bankComp, cache.HopHit, 224, 20)},
					events: 1, firstMin: 224},
			}
		}, 54},
		{"bound-below-load", func(k hopKit, inj uint64) []chainAccess {
			return []chainAccess{
				{issue: 300, hops: []cache.Hop{k.at(k.bankComp, cache.HopMiss, 314, 20), k.at(k.memComp, cache.HopMem, 334, 100)},
					events: 2, firstMin: 314},
				// Its bank hop (334) is below the previous load's completion (434).
				{issue: 320, hops: []cache.Hop{k.at(k.bankComp, cache.HopHit, 334, 20)},
					events: 1, firstMin: 434, gated: true},
				{issue: 330, write: true, hops: []cache.Hop{k.at(k.bankComp, cache.HopHit, 344, 20)},
					events: 1, firstMin: 354, gated: true},
				// Completes at 434, tying the first load: the later access feeds back.
				{issue: 400, write: true, hops: []cache.Hop{k.at(k.bankComp, cache.HopHit, 414, 20)},
					events: 1, firstMin: 414, gated: true},
			}
		}, 29},
	} {
		t.Run(c.name, func(t *testing.T) {
			sim := newChainSim(t)
			sys := sim.Sys
			k := hopKit{bankComp: bankComp(sys, 0), memComp: 0}
			accesses := c.accesses(k, sys.Fabric.Injection())
			rec := sim.recorders[0]
			for _, a := range accesses {
				rec.RecordAccess(0, a.issue, a.write, a.hops)
			}
			if len(rec.recs) != len(accesses) {
				t.Fatalf("recorded %d accesses, want %d", len(rec.recs), len(accesses))
			}
			var ch coreChain
			var firsts []*event.Event
			for i, a := range accesses {
				load, loadChildren := ch.load, 0
				if load != nil {
					loadChildren = load.NumChildren()
				}
				before := sim.slab.InUse()
				first := ch.add(sim.slab, sim.engine, sys, &rec.recs[i], rec.hops(&rec.recs[i]))
				if got := sim.slab.InUse() - before; got != a.events {
					t.Errorf("access %d built %d events, want %d", i, got, a.events)
				}
				if first.MinCycle != a.firstMin {
					t.Errorf("access %d: first event's lower bound %d, want %d", i, first.MinCycle, a.firstMin)
				}
				if gated := load != nil && load.NumChildren() == loadChildren+1; gated != a.gated {
					t.Errorf("access %d: first event under the latest load = %v, want %v", i, gated, a.gated)
				}
				firsts = append(firsts, first)
			}
			sim.engine.Run()
			for i, first := range firsts {
				// A run event finishes at or after its lower bound; one never
				// enqueued nor anyone's child keeps its zero finish cycle.
				if first.FinishCycle() < first.MinCycle {
					t.Errorf("access %d: first event never ran", i)
				}
			}
			if got := ch.feedback(); got != c.feedback {
				t.Errorf("feedback %d, want %d", got, c.feedback)
			}
		})
	}
}

// TestRecordOnlyWeaveComponents pins the recording contract: a traced access
// records a hop only at a weave component (an L3 bank or a memory
// controller) or on a network link. L1 hits, L2 hits, private writebacks and
// coherence invalidations record nothing, and the recorder keeps every trace
// it is handed. It runs on Westmere (private L2s, no NoC contention) and on
// the meshNOC chip. The component table holds exactly the controllers, the
// banks and the routers, in that order.
func TestRecordOnlyWeaveComponents(t *testing.T) {
	for _, c := range []struct {
		name string
		cfg  *config.System
	}{{"westmere", config.WestmereValidation()}, {"mesh-noc", meshNOC()}} {
		t.Run(c.name, func(t *testing.T) {
			sys, err := BuildSystem(c.cfg)
			if err != nil {
				t.Fatalf("BuildSystem: %v", err)
			}
			routers := 0
			if sys.Fabric != nil {
				routers = sys.Net.(network.Topology).Nodes()
			}
			if len(sys.comps) != len(sys.Mems)+len(sys.Banks)+routers {
				t.Fatalf("%d weave components, want %d controllers + %d banks + %d routers",
					len(sys.comps), len(sys.Mems), len(sys.Banks), routers)
			}
			for id, m := range sys.comps {
				var ok bool
				switch {
				case id < len(sys.Mems):
					_, ok = m.(memModel)
				case id < len(sys.Mems)+len(sys.Banks):
					_, ok = m.(*BankModel)
				default:
					_, ok = m.(routerModel)
				}
				if !ok {
					t.Fatalf("component %d is a %T", id, m)
				}
			}

			rec := NewRecorder(0, nil)
			var cycle uint64
			handed, kinds := 0, map[cache.HopKind]int{}
			// access issues one traced access from a core's L1D and hands a
			// non-empty trace to the recorder, as a core does. Every hop must
			// name a bank or controller, or be a network hop.
			access := func(coreID int, line uint64, write bool) int {
				cycle += 10
				req := cache.Request{LineAddr: line, Write: write, CoreID: coreID, Cycle: cycle, RecordHops: true}
				sys.L1D[coreID].Access(&req)
				for _, h := range req.Hops {
					kinds[h.Kind]++
					if h.Kind == cache.HopNet || h.Kind == cache.HopNetMem {
						if h.Comp != -1 {
							t.Fatalf("network hop %+v names component %d", h, h.Comp)
						}
					} else if h.Comp < 0 || h.Comp >= len(sys.Mems)+len(sys.Banks) {
						t.Fatalf("hop %+v names no bank or controller", h)
					}
				}
				n := len(req.Hops)
				if n > 0 {
					rec.RecordAccess(coreID, cycle, write, req.Hops)
					handed++
				}
				return n
			}
			l3Accesses := func() (n uint64) {
				for _, b := range sys.Banks {
					n += b.Hits.Get() + b.Misses.Get()
				}
				return n
			}

			// Core 0 stores to half again as many lines as its L1D holds:
			// cold misses to memory, and dirty L1 victims.
			lines := 3 * c.cfg.L1D.SizeKB * 1024 / cache.LineSize / 2
			const base = 1 << 30
			for i := range lines {
				if access(0, base+uint64(i), true) == 0 {
					t.Fatalf("a cold miss recorded no hop")
				}
			}
			// Reading them back, newest first, is served by the L1 and the
			// L2, with dirty L1 victims written back into the L2: no hop at
			// all.
			l3Before, l1HitsBefore, l2HitsBefore := l3Accesses(), sys.L1D[0].Hits.Get(), sys.L2[0].Hits.Get()
			wbBefore := cacheStat(sys.L1D[0], "writebacks")
			for i := lines - 1; i >= 0; i-- {
				if n := access(0, base+uint64(i), false); n != 0 {
					t.Fatalf("a read of line %d served by the private levels recorded %d hops", i, n)
				}
			}
			if l3Accesses() != l3Before {
				t.Fatalf("the read-back reached the L3: the private levels must hold its lines")
			}
			if sys.L1D[0].Hits.Get() == l1HitsBefore || sys.L2[0].Hits.Get() == l2HitsBefore ||
				cacheStat(sys.L1D[0], "writebacks") == wbBefore {
				t.Fatalf("the read-back must hit in the L1 and the L2 and write L1 victims back: %d %d %d",
					sys.L1D[0].Hits.Get()-l1HitsBefore, sys.L2[0].Hits.Get()-l2HitsBefore, cacheStat(sys.L1D[0], "writebacks")-wbBefore)
			}
			// Core 1 stores to the lines, invalidating core 0's copies at the
			// L3, and core 0 reads them back, downgrading core 1's: each
			// access records its bank (and memory and network) hops only.
			invalsBefore := cacheStat(sys.L2[0], "invalidations")
			for i := range lines {
				access(1, base+uint64(i), true)
				access(0, base+uint64(i), false)
			}
			if cacheStat(sys.L2[0], "invalidations") == invalsBefore {
				t.Fatalf("core 1's stores invalidated nothing in core 0's L2")
			}
			if sys.Fabric != nil && (kinds[cache.HopNet] == 0 || kinds[cache.HopNetMem] == 0) {
				t.Fatalf("no network hops recorded on the mesh: %v", kinds)
			}
			logged := 0
			for i := range rec.recs {
				logged += len(rec.hops(&rec.recs[i]))
			}
			if len(rec.recs) != handed || logged != len(rec.log) || logged == 0 {
				t.Fatalf("recorder kept %d of %d traces, %d hops", len(rec.recs), handed, logged)
			}
		})
	}
}

// cacheStat reads one of a cache's statistics by its exported name.
func cacheStat(c *cache.Cache, name string) (v uint64) {
	c.VisitStats(func(n, _ string, x uint64) {
		if n == name {
			v = x
		}
	})
	return v
}
