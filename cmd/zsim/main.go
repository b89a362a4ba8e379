// Command zsim runs one configuration-driven simulation: it loads a system
// description (JSON) or one of the built-in presets, attaches a named
// workload, runs the bound-weave simulation and prints the results and,
// optionally, the full statistics tree.
//
// Examples:
//
//	zsim -preset westmere -workload mcf -threads 1
//	zsim -preset tiled -tiles 16 -workload fluidanimate -threads 256 -stats
//	zsim -config mychip.json -workload stream -threads 8 -max-instrs 50000000
//	zsim -preset tiled -tiles 16 -workload stream -threads 64 -progress -trace-out run.trace.json
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"time"

	"zsim"
)

func main() {
	var (
		configPath = flag.String("config", "", "JSON system configuration file (overrides -preset)")
		preset     = flag.String("preset", "westmere", "built-in preset: westmere, tiled, small")
		tiles      = flag.Int("tiles", 4, "number of 16-core tiles for the tiled preset")
		coreModel  = flag.String("cores", "ooo", "core model for the tiled preset: ooo or ipc1")
		workload   = flag.String("workload", "blackscholes", "named workload (see -list)")
		threads    = flag.Int("threads", 1, "software threads of the workload")
		maxInstrs  = flag.Uint64("max-instrs", 0, "stop after this many simulated instructions (0 = run to completion)")
		hostThr    = flag.Int("host-threads", 0, "host worker threads (0 = all CPUs)")
		blocks     = flag.Int("blocks", 0, "override the workload's per-thread basic-block budget")
		nocCont    = flag.Bool("noc", false, "enable weave-phase NoC contention (implies the weave phase; routed topologies only)")
		linkBytes  = flag.Int("noc-link-bytes", 0, "NoC link width in bytes (0 = config default)")
		statsDump  = flag.Bool("stats", false, "dump the full statistics tree after the run")
		list       = flag.Bool("list", false, "list the registered workloads and exit")
		timeout    = flag.Duration("timeout", 0, "wall-clock budget for the run (0 = unlimited); an overrun exits non-zero with partial results")
		progress   = flag.Bool("progress", false, "print a live progress heartbeat on stderr while the run executes")
		progEvery  = flag.Duration("progress-interval", 2*time.Second, "heartbeat period for -progress")
		traceOut   = flag.String("trace-out", "", "write a Chrome trace-event JSON file of the run's bound and weave phases (load in Perfetto)")
		traceCap   = flag.Int("trace-events", 0, "trace-event capacity for -trace-out (0 = default bound; excess events are dropped and counted)")
	)
	flag.Parse()

	if *list {
		for _, n := range zsim.NamedWorkloads() {
			fmt.Println(n)
		}
		return
	}

	cfg, err := loadConfig(*configPath, *preset, *tiles, *coreModel)
	if err != nil {
		fatal(err)
	}
	if *nocCont {
		// NoC contention is a weave-phase model: enabling it implies the
		// weave phase itself, so -noc on a contention-off preset (small)
		// does not silently no-op.
		cfg.NOCContention = true
		cfg.Contention = true
	}
	if *linkBytes > 0 {
		cfg.NOCLinkBytes = *linkBytes
	}
	if *timeout > 0 {
		cfg.MaxWallTime = *timeout
	}
	sim, err := zsim.New(cfg)
	if err != nil {
		fatal(err)
	}
	params, ok := zsim.LookupWorkload(*workload)
	if !ok {
		fatal(fmt.Errorf("unknown workload %q (use -list)", *workload))
	}
	if *blocks > 0 {
		params.BlocksPerThread = *blocks
	}
	sim.AddWorkload(*workload, params, *threads)
	sim.SetMaxInstructions(*maxInstrs)
	sim.SetHostThreads(*hostThr)

	var sink *zsim.TraceSink
	if *traceOut != "" {
		sink = zsim.NewTraceSink(*traceCap)
		sim.SetTrace(sink)
	}
	stopHeartbeat := func() {}
	if *progress {
		stopHeartbeat = zsim.StartHeartbeat(os.Stderr, sim.Probe(), "zsim: ", *progEvery)
	}

	res, err := sim.Run()
	stopHeartbeat() // always prints one final line, even for sub-period runs
	if sink != nil {
		if werr := writeTrace(*traceOut, sink); werr != nil {
			fmt.Fprintln(os.Stderr, "zsim: trace-out:", werr)
		}
	}
	if err != nil {
		// Abnormal stops still carry partial results: print the diagnostic
		// and whatever was simulated, then exit non-zero so scripts notice.
		var re *zsim.RunError
		if !errors.As(err, &re) {
			fatal(err)
		}
		fmt.Fprintln(os.Stderr, re.Error()) // message already carries the zsim: prefix
		switch re.Reason {
		case zsim.Deadlocked:
			fmt.Fprintln(os.Stderr, "zsim: the workload deadlocked: no thread is runnable and none can be"+
				" woken by simulated time (lock cycle or unmatched barrier)")
		case zsim.DeadlineExceeded:
			fmt.Fprintf(os.Stderr, "zsim: the run exceeded its -timeout of %v; partial results below\n", *timeout)
		}
	}
	fmt.Println(res.Summary())
	if *statsDump {
		if werr := sim.WriteStats(os.Stdout); werr != nil {
			fatal(werr)
		}
	}
	if err != nil {
		os.Exit(1)
	}
}

func loadConfig(path, preset string, tiles int, coreModel string) (*zsim.Config, error) {
	if path != "" {
		return zsim.LoadConfigFile(path)
	}
	switch preset {
	case "westmere":
		return zsim.WestmereConfig(), nil
	case "tiled":
		return zsim.TiledConfig(tiles, coreModel), nil
	case "small":
		return zsim.SmallConfig(), nil
	default:
		return nil, fmt.Errorf("unknown preset %q", preset)
	}
}

// writeTrace exports the run's trace slices as Chrome trace-event JSON.
func writeTrace(path string, sink *zsim.TraceSink) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := sink.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "zsim:", err)
	os.Exit(1)
}
