// Command bench is the benchmark of this repository: one command that runs
// six named workloads, prints every end-to-end and per-layer metric by name
// with its unit, checks that the simulated outputs are correct, and writes
// one JSON result file. See README.md.
//
//	go run ./bench -seed 1                         all workloads, both passes
//	go run ./bench -workload hotspot64 -trace 0    one workload, end-to-end metrics
//	go run ./bench -compare a.json b.json          two result files, against the bounds
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"
)

// defaultSeconds is the length of one untraced window; BENCHMARK.json's
// run_seconds is the same number.
const defaultSeconds = 17

func main() { os.Exit(run()) }

func run() int {
	var (
		workload = flag.String("workload", "", "measure only this workload and end with the one-line JSON result (default: all six)")
		seed     = flag.Uint64("seed", 1, "seed of every generated input: trace streams, barrier shuffle, zsimd job order")
		seconds  = flag.Float64("seconds", defaultSeconds, "length of one measured window in seconds")
		trace    = flag.Int("trace", -1, "0: end-to-end metrics with tracing off; 1: per-layer metrics from the traced pass; -1: both")
		out      = flag.String("out", "", "write the JSON result file here")
		compare  = flag.Bool("compare", false, "compare two result files: -compare a.json b.json")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -compare a.json b.json")
			return 2
		}
		return compareFiles(os.Stdout, "BENCHMARK.json", flag.Arg(0), flag.Arg(1))
	}
	if flag.NArg() != 0 || *trace < -1 || *trace > 1 || *seconds <= 0 {
		flag.Usage()
		return 2
	}
	names := workloadNames()
	if *workload != "" {
		if !slices.Contains(names, *workload) {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q (have %s)\n", *workload, strings.Join(names, ", "))
			return 2
		}
		names = []string{*workload}
	}

	// The load generator is this one process: never more than two host
	// threads, clients or connections, so a 2-vCPU host is not oversubscribed.
	nproc := runtime.NumCPU()
	host := min(2, nproc)
	runtime.GOMAXPROCS(host)
	o := options{
		seed: *seed, seconds: *seconds, host: host,
		untraced: *trace != 1, traced: *trace != 0,
	}
	// A full report runs the layer kernels once, at full length, for all six
	// workloads. A traced-only run has one window for everything: half goes to
	// the traced pass and most of the rest to the kernels.
	o.tracedSeconds = *seconds / 2
	kernelSample := 300 * time.Millisecond
	if !o.untraced {
		kernelSample = time.Duration(*seconds * 0.4 / float64(kernelSamples*len(layerKernels())) * float64(time.Second))
	}

	file := &resultFile{
		Commit: commit(), Seed: *seed, NProc: nproc, GOMAXPROCS: host,
		GoVersion: runtime.Version(), Seconds: *seconds,
	}
	fmt.Printf("bench: commit %s seed %d nproc %d GOMAXPROCS %d %s window %gs\n", file.Commit, *seed, nproc, host, file.GoVersion, *seconds)
	if nproc < 2 {
		fmt.Println("bench: fewer than 2 CPUs: running at GOMAXPROCS=1; parallel-weave and pool numbers are not comparable with a 2-CPU run")
	}

	var goldenErr float64
	var kernels map[string]metric
	var err error
	if o.untraced {
		if goldenErr, err = goldenErrPct(); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		fmt.Printf("bench: golden_err_pct %.4f %% (bound-weave vs the golden sequential model, not hardware; fixed inputs, GOMAXPROCS=1)\n", goldenErr)
	}
	if o.traced {
		if kernels, err = runKernels(kernelSample); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}

	correct := true
	for _, name := range names {
		var res *workloadResult
		if name == zsimdMixName {
			res, err = runZsimdWorkload(o, kernels, goldenErr)
		} else {
			res, err = runSimWorkload(findSimWorkload(name), o, kernels, goldenErr)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		printWorkload(os.Stdout, res)
		correct = correct && res.correct()
		file.Workloads = append(file.Workloads, *res)
	}
	if *out != "" {
		if err := writeResultFile(*out, file); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		fmt.Printf("\nbench: wrote %s\n", *out)
	}
	if *workload != "" {
		line, err := driverLine(&file.Workloads[0], !o.untraced)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		fmt.Println(line)
	}
	if !correct {
		fmt.Fprintln(os.Stderr, "bench: a correctness check failed (see failed_frac and notes above)")
		return 1
	}
	return 0
}

// commit is the checkout's HEAD, or "unknown" outside a git repository (git
// is told not to look for one above the working directory).
func commit() string {
	cmd := exec.Command("git", "rev-parse", "HEAD")
	if wd, err := os.Getwd(); err == nil {
		cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(wd))
	}
	b, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}
