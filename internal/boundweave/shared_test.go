package boundweave

import (
	"runtime"
	"testing"

	"zsim/internal/cache"
	"zsim/internal/config"
	"zsim/internal/runctl"
	"zsim/internal/trace"
	"zsim/internal/virt"
)

// lineSet is an access observer that collects the lines one core touched.
type lineSet map[uint64]bool

func (s lineSet) ObserveAccess(line uint64, _ bool, _ int, _ uint64) { s[line] = true }

// TestSharedTilesHostThreads runs write-shared data on 16-core tiles at four
// host threads, so concurrent misses, upgrades, invalidations and downgrades
// meet in the tile L2s and the L3 banks under the race detector. The run
// must finish the instructions a one-thread run does, and every line valid
// in an L2 must be valid in its L3 bank.
//
// L1 ⊆ L2 does not hold on this chip (see the cache package doc). Serially,
// a tile L2's write upgrade leaves the other L1s' Shared copies untracked,
// and they can outlive the L2's copy, so only exclusive L1 copies are
// checked, and only in the one-thread run: at four threads an invalidation
// can also overtake an in-flight fill and strand an exclusive copy.
func TestSharedTilesHostThreads(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	run := func(hostThreads int) uint64 {
		cfg := config.TiledChip(4, config.CoreIPC1)
		cfg.Contention = true
		sys, err := BuildSystem(cfg)
		if err != nil {
			t.Fatalf("BuildSystem: %v", err)
		}
		// The mesh-hotspot workload: 70% of data accesses go to a 4 KB
		// write-shared region, the rest to L2-resident private data.
		p := trace.DefaultParams()
		p.BlocksPerThread = 200
		p.ScaleWork = false
		p.MemFraction = 0.4
		p.StoreFraction = 0.5
		p.SharedWorkingSet = 4 << 10
		p.SharedFraction = 0.7
		p.WorkingSet = 128 << 10
		sched := virt.NewScheduler(cfg.NumCores)
		sched.AddWorkload(trace.New("hotspot", p, cfg.NumCores))
		sim := NewSimulator(sys, sched, Options{HostThreads: hostThreads, Seed: 1})
		seen := make([]lineSet, cfg.NumCores)
		for coreID, c := range sys.Cores {
			seen[coreID] = lineSet{}
			c.SetObserver(seen[coreID])
		}
		instrs := sim.Run()
		if sim.Reason != runctl.ReasonNone {
			t.Fatalf("HostThreads=%d: run stopped: %v", hostThreads, sim.Reason)
		}
		var shared, exclusive int
		for coreID, lines := range seen {
			l2 := sys.L2[coreID/cfg.CoresPerTile]
			for line := range lines {
				inL2 := l2.StateOf(line) != cache.Invalid
				if inL2 && sys.Banks[sys.L3.BankOf(line)].StateOf(line) == cache.Invalid {
					t.Fatalf("HostThreads=%d: line %#x is valid in core %d's L2 but in no L3 bank", hostThreads, line, coreID)
				}
				for _, l1 := range []*cache.Cache{sys.L1I[coreID], sys.L1D[coreID]} {
					switch st := l1.StateOf(line); {
					case inL2 || st == cache.Invalid:
					case st == cache.Shared:
						shared++
					case hostThreads == 1:
						t.Fatalf("line %#x is %v in core %d's L1 but not in its L2", line, st, coreID)
					default:
						exclusive++
					}
				}
			}
		}
		t.Logf("HostThreads=%d: L1 copies outside their L2: %d Shared, %d Exclusive or Modified", hostThreads, shared, exclusive)
		return instrs
	}
	if want, got := run(1), run(4); got != want {
		t.Fatalf("HostThreads=4 simulated %d instructions, HostThreads=1 %d", got, want)
	}
}
