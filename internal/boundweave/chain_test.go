package boundweave

import (
	"testing"

	"zsim/internal/cache"
	"zsim/internal/config"
	"zsim/internal/event"
	"zsim/internal/trace"
	"zsim/internal/virt"
)

// chainAccess is one hand-built access of a chain-shape case: its full hop
// trace (private levels included), the number of model events it must build,
// its first event's lower bound, and whether that event hangs under the
// core's latest load (false: it is enqueued).
type chainAccess struct {
	issue    uint64
	write    bool
	hops     []cache.Hop
	events   int
	firstMin uint64
	gated    bool
}

// hopKit builds hops on one chip's components, all for line 64.
type hopKit struct{ l1, l2, bankComp, memComp int }

// priv is an L1 and an L2 miss starting at cycle: 14 private cycles.
func (k hopKit) priv(cycle uint64) []cache.Hop {
	return []cache.Hop{
		{Comp: k.l1, Kind: cache.HopMiss, Line: 64, Cycle: cycle, Latency: 4},
		{Comp: k.l2, Kind: cache.HopMiss, Line: 64, Cycle: cycle + 4, Latency: 10},
	}
}

func (k hopKit) net(kind cache.HopKind, src, dst int16, cycle uint64, lat uint32) cache.Hop {
	return cache.Hop{Comp: -1, Kind: kind, Src: src, Dst: dst, Line: 64, Cycle: cycle, Latency: lat}
}

func (k hopKit) at(comp int, kind cache.HopKind, cycle uint64, lat uint32) cache.Hop {
	return cache.Hop{Comp: comp, Kind: kind, Line: 64, Cycle: cycle, Latency: lat}
}

// newChainSim builds a four-core chip on a 2x2 mesh with NoC contention, so
// chains can mix router, bank and memory events.
func newChainSim(t *testing.T) *Simulator {
	t.Helper()
	cfg := config.SmallTest()
	cfg.NumCores = 4
	cfg.Contention = true
	cfg.Network = config.NetMesh
	cfg.NOCContention = true
	cfg.NOCLinkBytes = 4
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
				{issue: 100, hops: append(k.priv(100), k.net(cache.HopNet, 0, 3, 114, 5), k.at(k.bankComp, cache.HopMiss, 119, 20),
					k.net(cache.HopNetMem, 3, 0, 139, 1), k.at(k.memComp, cache.HopMem, 140, 30)),
					events: 5, firstMin: 114 + inj},
				{issue: 110, write: true, hops: append(k.priv(110), k.net(cache.HopNet, 0, 1, 124, 3), k.at(k.bankComp, cache.HopHit, 127, 20)),
					events: 2, firstMin: 170, gated: true},
				// The private writeback builds nothing; the store above gates nothing.
				{issue: 130, hops: append(k.priv(130), k.at(k.l2, cache.HopWB, 134, 0),
					k.net(cache.HopNet, 0, 3, 144, 5), k.at(k.bankComp, cache.HopHit, 149, 20)),
					events: 3, firstMin: 170, gated: true},
			}
		}, 54},
		{"store-only", func(k hopKit, inj uint64) []chainAccess {
			return []chainAccess{
				{issue: 200, write: true, hops: append(k.priv(200), k.at(k.bankComp, cache.HopMiss, 214, 20), k.at(k.memComp, cache.HopMem, 234, 30)),
					events: 2, firstMin: 214},
				{issue: 210, write: true, hops: append(k.priv(210), k.at(k.bankComp, cache.HopHit, 224, 20), k.at(k.memComp, cache.HopWB, 244, 0)),
					events: 2, firstMin: 224},
			}
		}, 54},
		{"bound-below-load", func(k hopKit, inj uint64) []chainAccess {
			return []chainAccess{
				{issue: 300, hops: append(k.priv(300), k.at(k.bankComp, cache.HopMiss, 314, 20), k.at(k.memComp, cache.HopMem, 334, 100)),
					events: 2, firstMin: 314},
				// Its bank hop (334) is below the previous load's completion (434).
				{issue: 320, hops: append(k.priv(320), k.at(k.bankComp, cache.HopHit, 334, 20)),
					events: 1, firstMin: 434, gated: true},
				{issue: 330, write: true, hops: append(k.priv(330), k.at(k.bankComp, cache.HopHit, 344, 20)),
					events: 1, firstMin: 354, gated: true},
				// Completes at 434, tying the first load: the later access feeds back.
				{issue: 400, write: true, hops: append(k.priv(400), k.at(k.bankComp, cache.HopHit, 414, 20)),
					events: 1, firstMin: 414, gated: true},
			}
		}, 29},
	} {
		t.Run(c.name, func(t *testing.T) {
			sim := newChainSim(t)
			sys := sim.Sys
			// BuildSystem numbers the first L2 right after the last bank, and
			// core 0's L1D right before core 0.
			k := hopKit{l1: sys.CoreComp[0] - 1, l2: sys.BankComp[len(sys.BankComp)-1] + 1, bankComp: sys.BankComp[0], memComp: sys.MemComp[0]}
			accesses := c.accesses(k, sim.models.fabric.Injection())
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
				first := ch.add(sim.slab, sim.engine, sim.models, &rec.recs[i], rec.hops(&rec.recs[i]))
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
