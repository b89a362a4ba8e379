// Package harness builds and runs the experiments of the paper's evaluation
// section (Section 4): every figure and table has a function here that
// produces its rows or series, and a formatter that prints them in the same
// layout the paper uses. The cmd/zsimexp binary is a thin wrapper over this
// package; the benchmark (bench/) does not use it.
//
// Experiments accept an Options value whose Scale field shrinks instruction
// budgets and core counts so the full suite can also run in seconds for tests
// and continuous integration; the default Scale of 1.0 is the paper-scale
// budget, ~2M instructions per workload.
package harness

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"strings"
	"time"

	"zsim/internal/boundweave"
	"zsim/internal/config"
	"zsim/internal/noc"
	"zsim/internal/runctl"
	"zsim/internal/stats"
	"zsim/internal/telemetry"
	"zsim/internal/trace"
	"zsim/internal/virt"
)

// Options control experiment sizing.
type Options struct {
	// Scale multiplies every workload's instruction budget (1.0 = the
	// paper-scale budget, ~2M instructions per workload; tests use
	// 0.02-0.05).
	Scale float64
	// HostThreads caps bound-phase parallelism (0 = all host CPUs).
	HostThreads int
	// MaxCores caps the number of simulated cores in the large-chip
	// experiments (0 = the paper's 1024). Tests use 64.
	MaxCores int
	// Timeout is a per-run wall-clock budget (0 = unlimited). A run that
	// exceeds it is stopped by the watchdog and reported as an error rather
	// than hanging the whole experiment suite.
	Timeout time.Duration
	// Log, when non-nil, receives progress lines.
	Log io.Writer
	// Progress, when non-nil, receives a live heartbeat line for every
	// simulation run (phase, intervals, cycles, sim-MIPS), fed from the
	// simulator's telemetry probe. The -progress flag of cmd/zsimexp.
	Progress io.Writer
	// ProgressPeriod is the heartbeat period (0 = 2s). Every run also emits
	// one final line regardless of period, so short runs are still visible.
	ProgressPeriod time.Duration
}

// DefaultOptions returns full-scale experiment options.
func DefaultOptions() Options { return Options{Scale: 1.0} }

// TestOptions returns options small enough for unit tests.
func TestOptions() Options { return Options{Scale: 0.02, HostThreads: 2, MaxCores: 64} }

func (o Options) logf(format string, args ...interface{}) {
	if o.Log != nil {
		fmt.Fprintf(o.Log, format+"\n", args...)
	}
}

func (o Options) hostThreads() int {
	if o.HostThreads > 0 {
		return o.HostThreads
	}
	return runtime.NumCPU()
}

// budgetBlocks converts a baseline block budget through the scale factor.
func (o Options) budgetBlocks(base int) int {
	n := int(float64(base) * o.Scale)
	if n < 50 {
		n = 50
	}
	return n
}

// bigChipCores returns the simulated core count for the thousand-core
// experiments, honouring MaxCores.
func (o Options) bigChipCores(want int) int {
	if o.MaxCores > 0 && want > o.MaxCores {
		return o.MaxCores
	}
	return want
}

// ModelKind names the four simulation-model combinations of the evaluation:
// simple or OOO cores, with or without contention (the weave phase).
type ModelKind string

// The four model combinations used throughout Section 4.2.
const (
	ModelIPC1NC ModelKind = "IPC1-NC"
	ModelIPC1C  ModelKind = "IPC1-C"
	ModelOOONC  ModelKind = "OOO-NC"
	ModelOOOC   ModelKind = "OOO-C"
)

// AllModels lists the four model combinations in the paper's order.
func AllModels() []ModelKind { return []ModelKind{ModelIPC1NC, ModelIPC1C, ModelOOONC, ModelOOOC} }

func (m ModelKind) coreModel() config.CoreModel {
	if m == ModelIPC1NC || m == ModelIPC1C {
		return config.CoreIPC1
	}
	return config.CoreOOO
}

func (m ModelKind) contention() bool { return m == ModelIPC1C || m == ModelOOOC }

// RunResult is the outcome of one simulation run.
type RunResult struct {
	Metrics   *stats.Metrics
	HostNanos int64
	Intervals uint64
	// NOC aggregates the NoC contention subsystem's counters (zero when the
	// configuration leaves it disabled).
	NOC noc.Stats
}

// runZSim builds the system for cfg, runs the named workload with the given
// thread count through the bound-weave simulator, and returns metrics plus
// host time.
func runZSim(cfg *config.System, workload string, params trace.Params, threads int, opts Options) (*RunResult, error) {
	sys, err := boundweave.BuildSystem(cfg)
	if err != nil {
		return nil, err
	}
	w := trace.NewIn(sys.Root.Arena(), workload, params, threads)
	sched := virt.NewScheduler(cfg.NumCores)
	sched.AddWorkload(w)
	bwOpts := boundweave.Options{
		HostThreads: opts.hostThreads(),
		Seed:        1,
		MaxWallTime: opts.Timeout,
	}
	stopHeartbeat := func() {}
	if opts.Progress != nil {
		period := opts.ProgressPeriod
		if period <= 0 {
			period = 2 * time.Second
		}
		probe := new(telemetry.Probe)
		bwOpts.Probe = probe
		prefix := fmt.Sprintf("%s/%s: ", cfg.Name, workload)
		stopHeartbeat = telemetry.StartHeartbeat(opts.Progress, probe, prefix, period)
	}
	sim := boundweave.NewSimulator(sys, sched, bwOpts)
	start := time.Now()
	sim.Run()
	elapsed := time.Since(start).Nanoseconds()
	stopHeartbeat()
	if r := sim.Reason; r != runctl.ReasonNone {
		// An experiment run that deadlocks, overruns its budget or panics
		// must surface as a loud failure, not as silently-wrong table rows.
		return nil, fmt.Errorf("%s on %s: run %s at interval %d (cycle %d)",
			workload, cfg.Name, r, sim.Intervals, sim.GlobalCycle())
	}
	m := sys.Metrics()
	m.Workload = workload
	m.Model = string(cfg.CoreModel)
	m.HostNanos = elapsed
	m.Finalize()
	res := &RunResult{Metrics: m, HostNanos: elapsed, Intervals: sim.Intervals}
	if sys.Fabric != nil {
		res.NOC = sys.Fabric.TotalStats()
	}
	return res, nil
}

// nativeRate measures how fast the host can execute the workload's dynamic
// block stream with no timing models attached — the stand-in for native
// execution of the benchmark binary, used to report slowdowns in Table 4.
func nativeRate(params trace.Params, threads int) float64 {
	w := trace.New("native", params, threads)
	start := time.Now()
	var instrs uint64
	for t := 0; t < threads; t++ {
		th := w.NewThread(t)
		for {
			b := th.NextBlock()
			if b.Sync == trace.SyncDone {
				break
			}
			instrs += uint64(b.Decoded.Instrs)
		}
	}
	elapsed := time.Since(start).Seconds()
	if elapsed <= 0 {
		return 0
	}
	return float64(instrs) / elapsed / 1e6 // MIPS
}

// table renders rows of columns with aligned widths.
func table(header []string, rows [][]string) string {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cols []string) {
		for i, c := range cols {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteString("\n")
	}
	writeRow(header)
	sep := make([]string, len(header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, r := range rows {
		writeRow(r)
	}
	return b.String()
}

func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func pct(v float64) string {
	return fmt.Sprintf("%+.1f%%", v*100)
}

// sortedKeys returns the map's keys in sorted order (for deterministic
// tables).
func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
