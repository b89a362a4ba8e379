package main

import (
	"fmt"
	"math"
	"runtime"

	"zsim/internal/baseline"
	"zsim/internal/boundweave"
	"zsim/internal/config"
	"zsim/internal/runctl"
	"zsim/internal/trace"
	"zsim/internal/virt"
)

// goldenBlocks is the fixed block budget of the accuracy check.
const goldenBlocks = 20000

// goldenErrPct is the simulator's accuracy on a fixed validation set: the
// mean |PerfError| of the bound-weave run against baseline.RunGolden on the
// unmodified Westmere configuration for namd, gcc and mcf, in percent. The
// reference is the repository's golden sequential model, not hardware.
//
// The inputs are the registry's own (they do not follow -seed) and the runs
// are made at GOMAXPROCS=1, so the figure repeats exactly for a commit and
// any change in it is a change of the model. Untimed.
func goldenErrPct() (float64, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var sum float64
	names := []string{"namd", "gcc", "mcf"}
	for _, name := range names {
		p := trace.MustLookup(name)
		p.BlocksPerThread = goldenBlocks
		p.ScaleWork = false
		golden, err := baseline.RunGolden(config.WestmereValidation(), trace.New(name, p, 1), 0)
		if err != nil {
			return 0, fmt.Errorf("golden %s: %w", name, err)
		}
		sys, err := boundweave.BuildSystem(config.WestmereValidation())
		if err != nil {
			return 0, fmt.Errorf("golden %s: %w", name, err)
		}
		sched := virt.NewScheduler(sys.Cfg.NumCores)
		sched.AddWorkload(trace.NewIn(sys.Root.Arena(), name, p, 1))
		sim := boundweave.NewSimulator(sys, sched, boundweave.Options{HostThreads: 1, Seed: 1})
		sim.Run()
		if sim.Reason != runctl.ReasonNone {
			return 0, fmt.Errorf("golden %s: bound-weave run %s", name, sim.Reason)
		}
		sum += math.Abs(sys.Metrics().PerfError(golden.Metrics))
	}
	return sum / float64(len(names)) * 100, nil
}
