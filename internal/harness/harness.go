// Package harness regenerates the evaluation of the paper (Section 4): each
// figure and table is an Experiment in the ordered registry Experiments, and
// every experiment returns its numbers as one Table, printed by Table.Format.
// The cmd/zsimexp binary dispatches on the registry; the benchmark (bench/)
// does not use this package.
//
// Experiments are clients of the public zsim facade: each simulation run is
// zsim.New, AddWorkload, Run, with the caller's host threads, wall-clock
// budget and progress heartbeat applied, and a run that stops abnormally
// becomes the experiment's error. Figure 2 is the one exception: it watches
// every access, so it runs through boundweave.InterferenceProfiler.Profile.
// The validation figures compare against baseline.RunGolden, the fully
// ordered reference model.
//
// Options.Scale shrinks instruction budgets (and Options.MaxCores the chip
// sizes) so the whole suite also runs in seconds for tests; Scale 1.0 is the
// paper-scale budget, ~2M instructions per workload.
package harness

import (
	"cmp"
	"fmt"
	"io"
	"runtime"
	"strings"
	"time"

	"zsim"
	"zsim/internal/config"
	"zsim/internal/trace"
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

func (o Options) logf(format string, args ...any) {
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
	return max(int(float64(base)*o.Scale), 50)
}

// bigChipCores returns the simulated core count for the thousand-core
// experiments, honouring MaxCores.
func (o Options) bigChipCores(want int) int {
	if o.MaxCores > 0 && want > o.MaxCores {
		return o.MaxCores
	}
	return want
}

// Experiment is one registered experiment: the name cmd/zsimexp dispatches
// on and the function that produces its table.
type Experiment struct {
	Name string
	Run  func(Options) (*Table, error)
}

// Experiments lists every experiment, in the order "zsimexp all" runs them.
var Experiments = []Experiment{
	{"table2", Table2},
	{"table3", Table3},
	{"fig2", Figure2},
	{"fig5", Figure5},
	{"fig6perf", Figure6Perf},
	{"fig6speedup", Figure6Speedup},
	{"fig6stream", Figure6Stream},
	{"table4", Table4},
	{"fig7", Figure7},
	{"fig8", Figure8},
	{"fig9", Figure9},
	{"intervals", IntervalSensitivity},
	{"meshhotspot", MeshHotspot},
	{"oversub", OversubscribedClientServer},
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

// Table is the result of every experiment: a title, named columns each with
// its own number format, named rows of numeric cells, and note lines printed
// under the table. A table without columns is just its title and notes.
type Table struct {
	Title string
	// Key heads the column of row names.
	Key     string
	Columns []Column
	Rows    []Row
	Notes   []string
}

// Column is a column's name and the fmt format its cells print with.
// Percentage columns (format pct) hold percent values, not fractions.
type Column struct {
	Name, Format string
}

// Row is one named row; Cells[i] belongs to Columns[i].
type Row struct {
	Name  string
	Cells []float64
}

// pct is the format of signed percentage columns.
const pct = "%+.1f%%"

// columns returns one column per name, all printed with format.
func columns(format string, names ...string) []Column {
	cols := make([]Column, len(names))
	for i, n := range names {
		cols[i] = Column{n, format}
	}
	return cols
}

// labels formats each x with format, for columns named by a sweep.
func labels(format string, xs []int) []string {
	out := make([]string, len(xs))
	for i, x := range xs {
		out[i] = fmt.Sprintf(format, x)
	}
	return out
}

// AddRow appends a row.
func (t *Table) AddRow(name string, cells ...float64) {
	t.Rows = append(t.Rows, Row{name, cells})
}

// Format renders the title, the rows under aligned column headers, and the
// notes after a blank line.
func (t *Table) Format() string {
	var b strings.Builder
	b.WriteString(t.Title + "\n")
	if len(t.Columns) > 0 {
		// lines[0] is the header and lines[1] the separator, filled in once
		// the widths are known.
		lines := [][]string{{t.Key}, nil}
		for _, c := range t.Columns {
			lines[0] = append(lines[0], c.Name)
		}
		for _, r := range t.Rows {
			line := []string{r.Name}
			for i, v := range r.Cells {
				line = append(line, fmt.Sprintf(t.Columns[i].Format, v))
			}
			lines = append(lines, line)
		}
		widths := make([]int, len(lines[0]))
		for _, line := range lines {
			for i, s := range line {
				widths[i] = max(widths[i], len(s))
			}
		}
		for _, w := range widths {
			lines[1] = append(lines[1], strings.Repeat("-", w))
		}
		for _, line := range lines {
			var row strings.Builder
			for i, s := range line {
				fmt.Fprintf(&row, "%-*s  ", widths[i], s)
			}
			b.WriteString(strings.TrimRight(row.String(), " ") + "\n")
		}
		if len(t.Notes) > 0 {
			b.WriteString("\n")
		}
	}
	for _, n := range t.Notes {
		b.WriteString(n + "\n")
	}
	return b.String()
}

// workload is one process of a simulated run.
type workload struct {
	name    string
	params  trace.Params
	threads int
}

// simulate runs the workloads on cfg through the zsim facade with opts' host
// threads, wall-clock budget and progress heartbeat. A run that stops
// abnormally (deadline, deadlock, panic) becomes the experiment's error
// rather than silently truncated rows.
func simulate(cfg *config.System, opts Options, seed uint64, loads ...workload) (*zsim.Result, error) {
	cfg.MaxWallTime = opts.Timeout
	sim, err := zsim.New(cfg)
	if err != nil {
		return nil, err
	}
	for _, l := range loads {
		sim.AddWorkload(l.name, l.params, l.threads)
	}
	sim.SetHostThreads(opts.hostThreads())
	sim.SetSeed(seed)
	if opts.Progress != nil {
		period := cmp.Or(opts.ProgressPeriod, 2*time.Second)
		defer zsim.StartHeartbeat(opts.Progress, sim.Probe(), cfg.Name+"/"+loads[0].name+": ", period)()
	}
	res, err := sim.Run()
	if err != nil {
		return nil, fmt.Errorf("%s on %s: %w", loads[0].name, cfg.Name, err)
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
