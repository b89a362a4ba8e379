// Command zsimexp regenerates the tables and figures of the paper's
// evaluation section. Each experiment prints the same rows or series the
// paper reports.
//
// Usage:
//
//	zsimexp [-scale 1.0] [-max-cores 1024] [-host-threads N] <experiment>
//
// Experiments: table2, table3, fig2, fig5, fig6perf, fig6speedup, fig6stream,
// table4, fig7, fig8, fig9, intervals, meshhotspot, oversub.
//
// "all" runs every experiment in that order; "sweep" (with -daemon) runs a
// campaign through zsimd.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"zsim/internal/harness"
)

func main() {
	os.Exit(cliMain(os.Args[1:], os.Stdout, os.Stderr))
}

// cliMain is main without the process-global bits, so tests can drive the
// full flag-parse/run/print path in-process and capture both streams.
func cliMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("zsimexp", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		scale    = fs.Float64("scale", 0.25, "instruction-budget scale factor (1.0 = full paper-scale budgets, ~2M instructions per workload)")
		maxCores = fs.Int("max-cores", 1024, "cap on the simulated core count for the large-chip experiments")
		hostThr  = fs.Int("host-threads", 0, "host worker threads (0 = all CPUs)")
		quiet    = fs.Bool("quiet", false, "suppress progress logging")
		timeout  = fs.Duration("timeout", 0, "per-run wall-clock budget (0 = unlimited); an overrun fails the experiment instead of hanging it")
		progress = fs.Bool("progress", false, "print a live per-run heartbeat on stderr (phase, intervals, cycles, sim-MIPS)")
		progIvl  = fs.Duration("progress-interval", 2*time.Second, "heartbeat period for -progress")
		daemon   = fs.String("daemon", "", "zsimd base URL (e.g. http://127.0.0.1:8347); required by the sweep experiment, which runs through the daemon instead of in-process")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintf(stderr, "usage: zsimexp [flags] <%s|sweep|all>\n", strings.Join(experimentNames(), "|"))
		return 2
	}
	opts := harness.Options{Scale: *scale, MaxCores: *maxCores, HostThreads: *hostThr, Timeout: *timeout}
	if fs.Arg(0) == "sweep" {
		if *daemon == "" {
			fmt.Fprintln(stderr, "zsimexp: sweep needs -daemon URL (a running zsimd)")
			return 2
		}
		if err := runSweep(*daemon, opts, stdout); err != nil {
			fmt.Fprintln(stderr, "zsimexp:", err)
			return 1
		}
		return 0
	}
	if *progress {
		opts.Progress = stderr
		opts.ProgressPeriod = *progIvl
	}
	if !*quiet {
		opts.Log = stderr
	}
	if err := run(fs.Arg(0), opts, stdout); err != nil {
		fmt.Fprintln(stderr, "zsimexp:", err)
		return 1
	}
	return 0
}

// experimentNames lists the registered experiments in order.
func experimentNames() []string {
	names := make([]string, len(harness.Experiments))
	for i, e := range harness.Experiments {
		names[i] = e.Name
	}
	return names
}

// run prints the named experiment's table, or every experiment's for "all".
func run(name string, opts harness.Options, stdout io.Writer) error {
	found := false
	for _, e := range harness.Experiments {
		if name != "all" && name != e.Name {
			continue
		}
		found = true
		t, err := e.Run(opts)
		if err != nil {
			return fmt.Errorf("%s: %w", e.Name, err)
		}
		fmt.Fprintln(stdout, t.Format())
	}
	if !found {
		return fmt.Errorf("unknown experiment %q", name)
	}
	return nil
}
