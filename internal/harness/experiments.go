package harness

import (
	"fmt"
	"strings"
	"time"

	"zsim/internal/baseline"
	"zsim/internal/boundweave"
	"zsim/internal/config"
	"zsim/internal/stats"
	"zsim/internal/trace"
	"zsim/internal/virt"
)

// ---------------------------------------------------------------------------
// Figure 2: path-altering interference vs interval length
// ---------------------------------------------------------------------------

// Fig2Result holds, for each workload, the fraction of accesses with
// path-altering interference under each reordering interval length.
type Fig2Result struct {
	Workloads []string
	Intervals []uint64
	// Fractions[workload][i] corresponds to Intervals[i].
	Fractions map[string][]float64
}

// multiObserver fans one access stream out to several profilers (one per
// interval length), so a single simulation measures all three points.
type multiObserver struct {
	profs []*boundweave.InterferenceProfiler
}

func (m *multiObserver) ObserveAccess(line uint64, write bool, core int, cycle uint64) {
	for _, p := range m.profs {
		p.ObserveAccess(line, write, core, cycle)
	}
}

// Figure2 reproduces the interference characterization: a 64-core chip with
// private L1/L2 and a 16-bank shared L3 running PARSEC and SPLASH-2 style
// workloads, profiled with 1K, 10K and 100K-cycle reordering windows.
func Figure2(opts Options) (*Fig2Result, error) {
	res := &Fig2Result{
		Workloads: trace.Figure2Names(),
		Intervals: []uint64{1000, 10000, 100000},
		Fractions: make(map[string][]float64),
	}
	cores := opts.bigChipCores(64)
	for _, name := range res.Workloads {
		opts.logf("fig2: %s", name)
		cfg := config.TiledChip(maxInt(cores/16, 1), config.CoreIPC1)
		cfg.Contention = false
		params := trace.MustLookup(name)
		params.BlocksPerThread = opts.budgetBlocks(400)

		profs := make([]*boundweave.InterferenceProfiler, len(res.Intervals))
		for i, iv := range res.Intervals {
			profs[i] = boundweave.NewInterferenceProfiler(iv)
		}
		sys, err := boundweave.BuildSystem(cfg)
		if err != nil {
			return nil, err
		}
		w := trace.New(name, params, cfg.NumCores)
		sched := virt.NewScheduler(cfg.NumCores)
		sched.AddWorkload(w)
		sim := boundweave.NewSimulator(sys, sched, boundweave.Options{HostThreads: opts.hostThreads(), Seed: 1})
		// Install the fan-out observer on every core.
		mo := &multiObserver{profs: profs}
		for _, c := range sys.Cores {
			c.SetObserver(mo)
		}
		sim.Run()

		fr := make([]float64, len(profs))
		for i, p := range profs {
			fr[i] = p.Fraction()
		}
		res.Fractions[name] = fr
	}
	return res, nil
}

// Format renders the Figure 2 data as a table.
func (r *Fig2Result) Format() string {
	header := []string{"workload"}
	for _, iv := range r.Intervals {
		header = append(header, fmt.Sprintf("%dK cycles", iv/1000))
	}
	var rows [][]string
	for _, w := range r.Workloads {
		row := []string{w}
		for _, f := range r.Fractions[w] {
			row = append(row, fmt.Sprintf("%.2e", f))
		}
		rows = append(rows, row)
	}
	return "Figure 2: fraction of accesses with path-altering interference\n" + table(header, rows)
}

// ---------------------------------------------------------------------------
// Tables 2 and 3: configurations
// ---------------------------------------------------------------------------

// Table2 returns the validated-system configuration (formatted).
func Table2() string {
	cfg := config.WestmereValidation()
	var b strings.Builder
	b.WriteString("Table 2: validation configuration (Westmere-class)\n")
	cfg.WriteJSON(&b)
	return b.String()
}

// Table3 returns the tiled-chip configuration for the given tile count.
func Table3(tiles int) string {
	cfg := config.TiledChip(tiles, config.CoreOOO)
	var b strings.Builder
	fmt.Fprintf(&b, "Table 3: tiled chip configuration (%d tiles, %d cores)\n", tiles, cfg.NumCores)
	cfg.WriteJSON(&b)
	return b.String()
}

// ---------------------------------------------------------------------------
// Figure 5: single-threaded validation against the golden reference
// ---------------------------------------------------------------------------

// Fig5Row is one SPEC-like workload's validation outcome.
type Fig5Row struct {
	Workload  string
	RealIPC   float64
	ZsimIPC   float64
	PerfError float64 // (perf_zsim - perf_real) / perf_real

	RealL1I, RealL1D, RealL2, RealL3, RealBranch float64 // reference MPKIs
	ErrL1I, ErrL1D, ErrL2, ErrL3, ErrBranch      float64 // zsim - reference
}

// Fig5Result aggregates the validation rows.
type Fig5Result struct {
	Rows            []Fig5Row
	AvgAbsPerfError float64
	Within10Pct     int
	AvgAbsMPKIErr   map[string]float64
}

// Figure5 validates the OOO core model: every SPEC CPU2006-like workload runs
// on the 6-core Westmere configuration under both the golden fully-ordered
// reference (the "real machine" substitute) and the bound-weave simulator,
// and the per-workload IPC and MPKI deviations are reported.
func Figure5(opts Options) (*Fig5Result, error) {
	return validateWorkloads(opts, trace.SPECCPU2006(), 1, opts.budgetBlocks(600))
}

// Figure6Perf validates the multithreaded workloads (perf error per workload,
// Figure 6 left).
func Figure6Perf(opts Options) (*Fig5Result, error) {
	return validateWorkloads(opts, trace.Multithreaded(), 4, opts.budgetBlocks(300))
}

func validateWorkloads(opts Options, names []string, threads, blocks int) (*Fig5Result, error) {
	res := &Fig5Result{AvgAbsMPKIErr: make(map[string]float64)}
	var perfErrs, l1i, l1d, l2, l3, br []float64
	for _, name := range names {
		opts.logf("validate: %s", name)
		cfg := config.WestmereValidation()
		cfg.HostThreads = opts.hostThreads()
		params := trace.MustLookup(name)
		params.BlocksPerThread = blocks
		params.ScaleWork = false

		golden, err := baseline.RunGolden(cfg, trace.New(name, params, threads), 0)
		if err != nil {
			return nil, err
		}
		zres, err := runZSim(cfg, name, params, threads, opts)
		if err != nil {
			return nil, err
		}
		zm, gm := zres.Metrics, golden.Metrics
		row := Fig5Row{
			Workload:   name,
			RealIPC:    gm.IPC,
			ZsimIPC:    zm.IPC,
			PerfError:  zm.PerfError(gm),
			RealL1I:    gm.L1IMPKI,
			RealL1D:    gm.L1DMPKI,
			RealL2:     gm.L2MPKI,
			RealL3:     gm.L3MPKI,
			RealBranch: gm.BranchMPKI,
			ErrL1I:     zm.MPKIError(gm, "l1i"),
			ErrL1D:     zm.MPKIError(gm, "l1d"),
			ErrL2:      zm.MPKIError(gm, "l2"),
			ErrL3:      zm.MPKIError(gm, "l3"),
			ErrBranch:  zm.MPKIError(gm, "branch"),
		}
		res.Rows = append(res.Rows, row)
		perfErrs = append(perfErrs, row.PerfError)
		l1i = append(l1i, row.ErrL1I)
		l1d = append(l1d, row.ErrL1D)
		l2 = append(l2, row.ErrL2)
		l3 = append(l3, row.ErrL3)
		br = append(br, row.ErrBranch)
		if abs(row.PerfError) <= 0.10 {
			res.Within10Pct++
		}
	}
	res.AvgAbsPerfError = stats.MeanAbs(perfErrs)
	res.AvgAbsMPKIErr["l1i"] = stats.MeanAbs(l1i)
	res.AvgAbsMPKIErr["l1d"] = stats.MeanAbs(l1d)
	res.AvgAbsMPKIErr["l2"] = stats.MeanAbs(l2)
	res.AvgAbsMPKIErr["l3"] = stats.MeanAbs(l3)
	res.AvgAbsMPKIErr["branch"] = stats.MeanAbs(br)
	return res, nil
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// Format renders the validation results.
func (r *Fig5Result) Format() string {
	header := []string{"workload", "ref IPC", "zsim IPC", "perf err",
		"L1I err", "L1D err", "L2 err", "L3 err", "Br err"}
	var rows [][]string
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Workload, f2(row.RealIPC), f2(row.ZsimIPC), pct(row.PerfError),
			f2(row.ErrL1I), f2(row.ErrL1D), f2(row.ErrL2), f2(row.ErrL3), f2(row.ErrBranch),
		})
	}
	out := "Validation vs golden reference (Figure 5 / Figure 6 left)\n" + table(header, rows)
	out += fmt.Sprintf("\navg |perf error| = %.1f%%, workloads within 10%%: %d/%d\n",
		r.AvgAbsPerfError*100, r.Within10Pct, len(r.Rows))
	for _, k := range sortedKeys(r.AvgAbsMPKIErr) {
		out += fmt.Sprintf("avg |%s MPKI error| = %.2f\n", k, r.AvgAbsMPKIErr[k])
	}
	return out
}

// ---------------------------------------------------------------------------
// Figure 6 (middle): PARSEC speedups, real (golden) vs zsim
// ---------------------------------------------------------------------------

// Fig6SpeedupResult holds per-workload speedup curves.
type Fig6SpeedupResult struct {
	Threads []int
	// Real[workload][i] and Zsim[workload][i] are the speedups at Threads[i],
	// both normalized to their own single-thread run.
	Real map[string][]float64
	Zsim map[string][]float64
}

// Figure6Speedup reproduces the PARSEC speedup validation: each workload runs
// with 1-6 threads under the golden reference and under zsim, and the two
// speedup curves are compared.
func Figure6Speedup(opts Options) (*Fig6SpeedupResult, error) {
	res := &Fig6SpeedupResult{
		Threads: []int{1, 2, 3, 4, 5, 6},
		Real:    make(map[string][]float64),
		Zsim:    make(map[string][]float64),
	}
	for _, name := range trace.PARSECNames() {
		opts.logf("fig6 speedup: %s", name)
		params := trace.MustLookup(name)
		params.BlocksPerThread = opts.budgetBlocks(1200)
		params.ScaleWork = true
		var realCycles, zsimCycles []float64
		for _, th := range res.Threads {
			cfg := config.WestmereValidation()
			cfg.HostThreads = opts.hostThreads()
			golden, err := baseline.RunGolden(cfg, trace.New(name, params, th), 0)
			if err != nil {
				return nil, err
			}
			zres, err := runZSim(cfg, name, params, th, opts)
			if err != nil {
				return nil, err
			}
			realCycles = append(realCycles, float64(golden.Metrics.Cycles))
			zsimCycles = append(zsimCycles, float64(zres.Metrics.Cycles))
		}
		res.Real[name] = speedups(realCycles)
		res.Zsim[name] = speedups(zsimCycles)
	}
	return res, nil
}

func speedups(cycles []float64) []float64 {
	out := make([]float64, len(cycles))
	if len(cycles) == 0 || cycles[0] == 0 {
		return out
	}
	for i, c := range cycles {
		if c > 0 {
			out[i] = cycles[0] / c
		}
	}
	return out
}

// Format renders the speedup curves.
func (r *Fig6SpeedupResult) Format() string {
	header := []string{"workload", "model"}
	for _, t := range r.Threads {
		header = append(header, fmt.Sprintf("%dt", t))
	}
	var rows [][]string
	for _, w := range trace.PARSECNames() {
		real, zs := r.Real[w], r.Zsim[w]
		if real == nil {
			continue
		}
		rr := []string{w, "real"}
		zr := []string{"", "zsim"}
		for i := range r.Threads {
			rr = append(rr, f2(real[i]))
			zr = append(zr, f2(zs[i]))
		}
		rows = append(rows, rr, zr)
	}
	return "Figure 6 (middle): PARSEC speedups, golden reference vs zsim\n" + table(header, rows)
}

// ---------------------------------------------------------------------------
// Figure 6 (right): STREAM scalability under different contention models
// ---------------------------------------------------------------------------

// Fig6StreamResult holds STREAM's speedup under each contention model.
type Fig6StreamResult struct {
	Threads []int
	// Series maps model name -> speedup per thread count.
	Series map[string][]float64
	// Order lists series in presentation order.
	Order []string
}

// Figure6Stream reproduces the STREAM contention-model comparison: no
// contention, the analytical M/D/1 model, the event-driven DDR3 weave model,
// the cycle-driven (DRAMSim2-style) weave model, and the golden reference
// standing in for the real machine.
func Figure6Stream(opts Options) (*Fig6StreamResult, error) {
	res := &Fig6StreamResult{
		Threads: []int{1, 2, 3, 4, 5, 6},
		Series:  make(map[string][]float64),
		Order:   []string{"No contention", "Anl cont (MD1)", "Ev-driven cont", "Cycle-driven cont", "Real (golden)"},
	}
	params := trace.MustLookup("stream")
	params.BlocksPerThread = opts.budgetBlocks(900)
	params.ScaleWork = true

	type variant struct {
		name string
		mut  func(*config.System)
		gold bool
	}
	variants := []variant{
		{"No contention", func(c *config.System) { c.Contention = false; c.MemModel = config.MemSimple }, false},
		{"Anl cont (MD1)", func(c *config.System) { c.Contention = false; c.MemModel = config.MemMD1 }, false},
		{"Ev-driven cont", func(c *config.System) { c.Contention = true; c.WeaveMem = config.WeaveMemDDR3 }, false},
		{"Cycle-driven cont", func(c *config.System) { c.Contention = true; c.WeaveMem = config.WeaveMemCycleDriven }, false},
		{"Real (golden)", nil, true},
	}
	for _, v := range variants {
		opts.logf("fig6 stream: %s", v.name)
		var cycles []float64
		for _, th := range res.Threads {
			cfg := config.WestmereValidation()
			cfg.HostThreads = opts.hostThreads()
			// STREAM saturates one memory controller; keep the validated
			// single-controller configuration.
			if v.gold {
				golden, err := baseline.RunGolden(cfg, trace.New("stream", params, th), 0)
				if err != nil {
					return nil, err
				}
				cycles = append(cycles, float64(golden.Metrics.Cycles))
				continue
			}
			v.mut(cfg)
			zres, err := runZSim(cfg, "stream", params, th, opts)
			if err != nil {
				return nil, err
			}
			cycles = append(cycles, float64(zres.Metrics.Cycles))
		}
		res.Series[v.name] = speedups(cycles)
	}
	return res, nil
}

// Format renders the STREAM scalability series.
func (r *Fig6StreamResult) Format() string {
	header := []string{"model"}
	for _, t := range r.Threads {
		header = append(header, fmt.Sprintf("%dt", t))
	}
	var rows [][]string
	for _, name := range r.Order {
		row := []string{name}
		for _, v := range r.Series[name] {
			row = append(row, f2(v))
		}
		rows = append(rows, row)
	}
	return "Figure 6 (right): STREAM speedup under different contention models\n" + table(header, rows)
}

// ---------------------------------------------------------------------------
// Table 4: thousand-core simulation performance
// ---------------------------------------------------------------------------

// Table4Row is one workload's simulator performance under the four models.
type Table4Row struct {
	Workload string
	MIPS     map[ModelKind]float64
	Slowdown map[ModelKind]float64
}

// Table4Result aggregates the thousand-core performance table.
type Table4Result struct {
	Cores int
	Rows  []Table4Row
	// HMeanMIPS is the harmonic mean of simulation MIPS per model.
	HMeanMIPS map[ModelKind]float64
}

// Table4 measures simulation performance (MIPS and slowdown vs native-rate
// execution of the same workload) on the tiled large chip for the four model
// combinations.
func Table4(opts Options) (*Table4Result, error) {
	return tableForCores(opts, opts.bigChipCores(1024), trace.Table4Names())
}

func tableForCores(opts Options, cores int, names []string) (*Table4Result, error) {
	tiles := maxInt(cores/16, 1)
	res := &Table4Result{Cores: tiles * 16, HMeanMIPS: make(map[ModelKind]float64)}
	perModel := make(map[ModelKind][]float64)
	for _, name := range names {
		params := trace.MustLookup(name)
		params.BlocksPerThread = opts.budgetBlocks(80)
		params.ScaleWork = false
		native := nativeRate(params, minInt(res.Cores, opts.hostThreads()))
		row := Table4Row{Workload: name, MIPS: make(map[ModelKind]float64), Slowdown: make(map[ModelKind]float64)}
		for _, model := range AllModels() {
			opts.logf("table4: %s %s", name, model)
			cfg := config.TiledChip(tiles, model.coreModel())
			cfg.Contention = model.contention()
			cfg.HostThreads = opts.hostThreads()
			zres, err := runZSim(cfg, name, params, res.Cores, opts)
			if err != nil {
				return nil, err
			}
			row.MIPS[model] = zres.Metrics.SimMIPS
			if zres.Metrics.SimMIPS > 0 && native > 0 {
				row.Slowdown[model] = native / zres.Metrics.SimMIPS
			}
			perModel[model] = append(perModel[model], zres.Metrics.SimMIPS)
		}
		res.Rows = append(res.Rows, row)
	}
	for model, vals := range perModel {
		res.HMeanMIPS[model] = stats.HMean(vals)
	}
	return res, nil
}

// Format renders the performance table.
func (r *Table4Result) Format() string {
	header := []string{"workload"}
	for _, m := range AllModels() {
		header = append(header, string(m)+" MIPS", string(m)+" slow")
	}
	var rows [][]string
	for _, row := range r.Rows {
		cols := []string{row.Workload}
		for _, m := range AllModels() {
			cols = append(cols, f1(row.MIPS[m]), f1(row.Slowdown[m])+"x")
		}
		rows = append(rows, cols)
	}
	out := fmt.Sprintf("Table 4: simulation performance, %d-core chip\n", r.Cores) + table(header, rows)
	out += "\nharmonic-mean MIPS:"
	for _, m := range AllModels() {
		out += fmt.Sprintf("  %s=%.1f", m, r.HMeanMIPS[m])
	}
	return out + "\n"
}

// ---------------------------------------------------------------------------
// Figure 7: single-thread simulator performance distribution
// ---------------------------------------------------------------------------

// Fig7Result holds, per model, the sorted per-workload simulation MIPS.
type Fig7Result struct {
	// MIPS[model] is sorted ascending (the paper plots the distribution).
	MIPS  map[ModelKind][]float64
	HMean map[ModelKind]float64
}

// Figure7 measures single-thread simulation speed over the SPEC-like suite
// for the four model combinations.
func Figure7(opts Options) (*Fig7Result, error) {
	res := &Fig7Result{MIPS: make(map[ModelKind][]float64), HMean: make(map[ModelKind]float64)}
	names := trace.SPECCPU2006()
	for _, model := range AllModels() {
		var vals []float64
		for _, name := range names {
			opts.logf("fig7: %s %s", name, model)
			cfg := config.WestmereValidation()
			cfg.CoreModel = model.coreModel()
			cfg.Contention = model.contention()
			cfg.HostThreads = 1 // single-thread simulator performance
			params := trace.MustLookup(name)
			params.BlocksPerThread = opts.budgetBlocks(500)
			zres, err := runZSim(cfg, name, params, 1, Options{Scale: opts.Scale, HostThreads: 1, Log: opts.Log})
			if err != nil {
				return nil, err
			}
			vals = append(vals, zres.Metrics.SimMIPS)
		}
		sortFloats(vals)
		res.MIPS[model] = vals
		res.HMean[model] = stats.HMean(vals)
	}
	return res, nil
}

func sortFloats(v []float64) {
	for i := 1; i < len(v); i++ {
		for j := i; j > 0 && v[j] < v[j-1]; j-- {
			v[j], v[j-1] = v[j-1], v[j]
		}
	}
}

// Format renders the distribution summary.
func (r *Fig7Result) Format() string {
	header := []string{"model", "min MIPS", "median MIPS", "max MIPS", "hmean MIPS"}
	var rows [][]string
	for _, m := range AllModels() {
		v := r.MIPS[m]
		if len(v) == 0 {
			continue
		}
		rows = append(rows, []string{string(m), f1(v[0]), f1(stats.Median(v)), f1(v[len(v)-1]), f1(r.HMean[m])})
	}
	return "Figure 7: single-thread simulation performance distribution (SPEC suite)\n" + table(header, rows)
}

// ---------------------------------------------------------------------------
// Figure 8: host scalability
// ---------------------------------------------------------------------------

// Fig8Result holds simulator speedup as host threads increase.
type Fig8Result struct {
	HostThreads []int
	// Speedup[model][i] is relative to 1 host thread.
	Speedup map[ModelKind][]float64
}

// Figure8 sweeps the number of host worker threads for the large-chip
// simulation and reports the simulator's self-relative speedup.
func Figure8(opts Options, workload string) (*Fig8Result, error) {
	if workload == "" {
		workload = "fluidanimate"
	}
	cores := opts.bigChipCores(1024)
	tiles := maxInt(cores/16, 1)
	maxHost := opts.hostThreads()
	var hostCounts []int
	for h := 1; h <= maxHost; h *= 2 {
		hostCounts = append(hostCounts, h)
	}
	if hostCounts[len(hostCounts)-1] != maxHost {
		hostCounts = append(hostCounts, maxHost)
	}
	res := &Fig8Result{HostThreads: hostCounts, Speedup: make(map[ModelKind][]float64)}
	params := trace.MustLookup(workload)
	params.BlocksPerThread = opts.budgetBlocks(60)

	for _, model := range []ModelKind{ModelIPC1NC, ModelOOOC} {
		var times []float64
		for _, h := range hostCounts {
			opts.logf("fig8: %s host=%d", model, h)
			cfg := config.TiledChip(tiles, model.coreModel())
			cfg.Contention = model.contention()
			zres, err := runZSim(cfg, workload, params, cores, Options{Scale: opts.Scale, HostThreads: h, Log: opts.Log})
			if err != nil {
				return nil, err
			}
			times = append(times, float64(zres.HostNanos))
		}
		sp := make([]float64, len(times))
		for i, t := range times {
			if t > 0 {
				sp[i] = times[0] / t
			}
		}
		res.Speedup[model] = sp
	}
	return res, nil
}

// Format renders the host-scalability curves.
func (r *Fig8Result) Format() string {
	header := []string{"model"}
	for _, h := range r.HostThreads {
		header = append(header, fmt.Sprintf("%d host", h))
	}
	var rows [][]string
	for _, m := range []ModelKind{ModelIPC1NC, ModelOOOC} {
		if r.Speedup[m] == nil {
			continue
		}
		row := []string{string(m)}
		for _, v := range r.Speedup[m] {
			row = append(row, f2(v)+"x")
		}
		rows = append(rows, row)
	}
	return "Figure 8: simulator speedup vs host threads (1024-core target)\n" + table(header, rows)
}

// ---------------------------------------------------------------------------
// Figure 9: target scalability
// ---------------------------------------------------------------------------

// Fig9Result holds hmean simulation MIPS for each simulated chip size.
type Fig9Result struct {
	Cores []int
	// HMeanMIPS[model][i] corresponds to Cores[i].
	HMeanMIPS map[ModelKind][]float64
}

// Figure9 measures aggregate simulation performance as the simulated chip
// grows (64, 256, 1024 cores in the paper; scaled by MaxCores here), using a
// subset of the Table 4 workloads.
func Figure9(opts Options) (*Fig9Result, error) {
	full := opts.bigChipCores(1024)
	sizes := []int{maxInt(full/16, 16), maxInt(full/4, 16), full}
	// Deduplicate in case MaxCores squeezed them together.
	sizes = dedupInts(sizes)
	names := []string{"blackscholes", "fluidanimate", "ocean", "fft"}
	res := &Fig9Result{Cores: nil, HMeanMIPS: make(map[ModelKind]([]float64))}
	for _, cores := range sizes {
		tres, err := tableForCores(opts, cores, names)
		if err != nil {
			return nil, err
		}
		res.Cores = append(res.Cores, tres.Cores)
		for _, m := range AllModels() {
			res.HMeanMIPS[m] = append(res.HMeanMIPS[m], tres.HMeanMIPS[m])
		}
	}
	return res, nil
}

func dedupInts(xs []int) []int {
	var out []int
	seen := map[int]bool{}
	for _, x := range xs {
		if !seen[x] {
			seen[x] = true
			out = append(out, x)
		}
	}
	return out
}

// Format renders the target-scalability table.
func (r *Fig9Result) Format() string {
	header := []string{"model"}
	for _, c := range r.Cores {
		header = append(header, fmt.Sprintf("%dc", c))
	}
	var rows [][]string
	for _, m := range AllModels() {
		row := []string{string(m)}
		for _, v := range r.HMeanMIPS[m] {
			row = append(row, f1(v))
		}
		rows = append(rows, row)
	}
	return "Figure 9: hmean simulation MIPS vs simulated chip size\n" + table(header, rows)
}

// ---------------------------------------------------------------------------
// Interval-length sensitivity (Section 4.2)
// ---------------------------------------------------------------------------

// IntervalResult holds the interval-length sensitivity sweep.
type IntervalResult struct {
	Intervals []uint64
	// PerfError[i] is the relative simulated-performance deviation vs the
	// 1Kcycle run; HostSpeedup[i] is host-time speedup vs the 1Kcycle run.
	PerfError   []float64
	HostSpeedup []float64
	Workload    string
}

// IntervalSensitivity sweeps the bound-weave interval length (1K, 10K, 100K
// cycles) and reports the accuracy/performance trade-off.
func IntervalSensitivity(opts Options, workload string) (*IntervalResult, error) {
	if workload == "" {
		workload = "fluidanimate"
	}
	cores := opts.bigChipCores(256)
	tiles := maxInt(cores/16, 1)
	params := trace.MustLookup(workload)
	params.BlocksPerThread = opts.budgetBlocks(80)
	res := &IntervalResult{Intervals: []uint64{1000, 10000, 100000}, Workload: workload}
	var baseCycles, baseTime float64
	for i, iv := range res.Intervals {
		opts.logf("intervals: %d", iv)
		cfg := config.TiledChip(tiles, config.CoreOOO)
		cfg.Contention = true
		cfg.IntervalCycles = iv
		zres, err := runZSim(cfg, workload, params, cores, opts)
		if err != nil {
			return nil, err
		}
		cycles := float64(zres.Metrics.Cycles)
		t := float64(zres.HostNanos)
		if i == 0 {
			baseCycles, baseTime = cycles, t
		}
		var perfErr, speedup float64
		if baseCycles > 0 {
			perfErr = (baseCycles/cycles - 1) // perf ∝ 1/cycles
		}
		if t > 0 {
			speedup = baseTime / t
		}
		res.PerfError = append(res.PerfError, perfErr)
		res.HostSpeedup = append(res.HostSpeedup, speedup)
	}
	return res, nil
}

// Format renders the sensitivity sweep.
func (r *IntervalResult) Format() string {
	header := []string{"interval", "perf error vs 1K", "host speedup vs 1K"}
	var rows [][]string
	for i, iv := range r.Intervals {
		rows = append(rows, []string{fmt.Sprintf("%dK cycles", iv/1000), pct(r.PerfError[i]), f2(r.HostSpeedup[i]) + "x"})
	}
	return fmt.Sprintf("Interval-length sensitivity (%s)\n", r.Workload) + table(header, rows)
}

// ---------------------------------------------------------------------------
// Mesh hotspot: NoC contention vs the zero-load network model
// ---------------------------------------------------------------------------

// MeshHotspotResult compares a tiled mesh chip under the zero-load network
// model (the paper's Section 4.3 assumption) and under the weave-phase NoC
// contention subsystem, on a hotspot workload whose write-shared lines
// funnel coherence traffic into a few L3 banks over an under-provisioned
// (narrow-link) mesh.
type MeshHotspotResult struct {
	Cores     int
	LinkBytes int
	Threads   []int
	// ThroughputZeroLoad and ThroughputNoC are aggregate instructions per
	// cycle at each thread count; ScalingZeroLoad/ScalingNoC normalize each
	// series to its own first point (the scaling-collapse view).
	ThroughputZeroLoad []float64
	ThroughputNoC      []float64
	ScalingZeroLoad    []float64
	ScalingNoC         []float64
	// QueueDelay, QueueStalls and MaxRouterDelay come from the contended
	// series' router counters at each thread count.
	QueueDelay     []uint64
	QueueStalls    []uint64
	MaxRouterDelay []uint64
}

// meshHotspotLinkBytes is the experiment's under-provisioned link width:
// 4-byte links make a line packet an 18-flit train, so the NoC saturates
// well before the banks do.
const meshHotspotLinkBytes = 4

// meshHotspotConfig builds the under-provisioned mesh chip the hotspot
// experiment and its benchmark share: IPC1 cores, weave contention on,
// narrow links.
func meshHotspotConfig(tiles int, nocContention bool) *config.System {
	cfg := config.TiledChip(tiles, config.CoreIPC1)
	cfg.Contention = true
	cfg.NOCContention = nocContention
	cfg.NOCLinkBytes = meshHotspotLinkBytes
	return cfg
}

// meshHotspotParams returns the hotspot traffic generator: heavily
// write-shared lines in a small shared region, so upgrade misses and
// invalidations keep forcing trips through the mesh to the same few L3
// banks.
func meshHotspotParams(opts Options) trace.Params {
	p := trace.DefaultParams()
	p.BlocksPerThread = opts.budgetBlocks(200)
	p.ScaleWork = false
	p.MemFraction = 0.4
	p.StoreFraction = 0.5
	p.SharedWorkingSet = 4 << 10
	p.SharedFraction = 0.7
	// Keep private data L2-resident so coherence traffic to the shared lines
	// — not DRAM — dominates, and the mesh is the bottleneck under test.
	p.WorkingSet = 128 << 10
	return p
}

// MeshHotspot runs the hotspot workload at increasing thread counts under
// both network models and reports the throughput-scaling collapse the
// zero-load model cannot see.
func MeshHotspot(opts Options) (*MeshHotspotResult, error) {
	cores := opts.bigChipCores(64)
	tiles := maxInt(cores/16, 1)
	cores = tiles * 16
	res := &MeshHotspotResult{Cores: cores, LinkBytes: meshHotspotLinkBytes}
	res.Threads = dedupInts([]int{maxInt(cores/4, 1), maxInt(cores/2, 1), cores})
	params := meshHotspotParams(opts)

	for _, nocOn := range []bool{false, true} {
		for _, th := range res.Threads {
			opts.logf("mesh-hotspot: noc=%v threads=%d", nocOn, th)
			cfg := meshHotspotConfig(tiles, nocOn)
			cfg.HostThreads = opts.hostThreads()
			zres, err := runZSim(cfg, "mesh-hotspot", params, th, opts)
			if err != nil {
				return nil, err
			}
			tput := 0.0
			if zres.Metrics.Cycles > 0 {
				tput = float64(zres.Metrics.Instrs) / float64(zres.Metrics.Cycles)
			}
			if nocOn {
				res.ThroughputNoC = append(res.ThroughputNoC, tput)
				res.QueueDelay = append(res.QueueDelay, zres.NOC.QueueDelay)
				res.QueueStalls = append(res.QueueStalls, zres.NOC.QueueStalls)
				res.MaxRouterDelay = append(res.MaxRouterDelay, zres.NOC.MaxRouterDelay)
			} else {
				res.ThroughputZeroLoad = append(res.ThroughputZeroLoad, tput)
			}
		}
	}
	res.ScalingZeroLoad = normalizeFirst(res.ThroughputZeroLoad)
	res.ScalingNoC = normalizeFirst(res.ThroughputNoC)
	return res, nil
}

// normalizeFirst divides each entry by the series' first entry.
func normalizeFirst(v []float64) []float64 {
	out := make([]float64, len(v))
	if len(v) == 0 || v[0] == 0 {
		return out
	}
	for i, x := range v {
		out[i] = x / v[0]
	}
	return out
}

// Format renders the hotspot comparison.
func (r *MeshHotspotResult) Format() string {
	header := []string{"series"}
	for _, t := range r.Threads {
		header = append(header, fmt.Sprintf("%dt", t))
	}
	row := func(name string, vals []float64, suffix string) []string {
		cols := []string{name}
		for _, v := range vals {
			cols = append(cols, f2(v)+suffix)
		}
		return cols
	}
	urow := func(name string, vals []uint64) []string {
		cols := []string{name}
		for _, v := range vals {
			cols = append(cols, fmt.Sprintf("%d", v))
		}
		return cols
	}
	rows := [][]string{
		row("zero-load IPC", r.ThroughputZeroLoad, ""),
		row("NoC-contended IPC", r.ThroughputNoC, ""),
		row("zero-load scaling", r.ScalingZeroLoad, "x"),
		row("NoC scaling", r.ScalingNoC, "x"),
		urow("router queue delay", r.QueueDelay),
		urow("router queue stalls", r.QueueStalls),
		urow("hottest router delay", r.MaxRouterDelay),
	}
	return fmt.Sprintf("Mesh hotspot: zero-load vs contended NoC (%d cores, %dB links)\n",
		r.Cores, r.LinkBytes) + table(header, rows)
}

// ---------------------------------------------------------------------------
// helpers
// ---------------------------------------------------------------------------

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// ---------------------------------------------------------------------------
// Oversubscribed client-server (Section 3.3 usage model)
// ---------------------------------------------------------------------------

// OversubResult holds the oversubscribed client-server experiment: a server
// process with more threads than cores that blocks on request waits and
// contends on a request-queue lock, plus a client process generating bursts
// — the h-store/memcached-style workload the virtualization layer exists
// for. The mid-interval scheduler's job is to keep simulated cores busy
// while threads block, so the experiment reports scheduling activity next
// to simulator throughput.
type OversubResult struct {
	Metrics *stats.Metrics
	// HostTime is the wall-clock duration of the run.
	HostTime time.Duration
	// Threads and Cores describe the oversubscription (Threads > Cores).
	Threads, Cores int
	Intervals      uint64
	BoundRounds    uint64
	// MidIntervalJoins counts threads pulled onto a freed core inside an
	// interval; ContextSwitches counts all placements.
	MidIntervalJoins uint64
	ContextSwitches  uint64
	LockBlocks       uint64
	SyscallBlocks    uint64
}

// OversubscribedClientServer runs the oversubscribed client-server workload
// on an 8-core chip with contention modeling enabled: 16 server threads that
// block in request waits and contend on request-queue locks, plus 4 client
// threads, all time-multiplexed by the scheduler.
func OversubscribedClientServer(opts Options) (*OversubResult, error) {
	cfg := config.SmallTest()
	cfg.NumCores = 8
	cfg.CoreModel = config.CoreIPC1
	cfg.Contention = true

	server := trace.DefaultParams()
	server.AddrSpace = 1
	server.BlocksPerThread = opts.budgetBlocks(2500)
	server.MemFraction = 0.35
	server.SharedWorkingSet = 4 << 20
	server.SharedFraction = 0.3
	// Pacing is derived from the block budget so the workload keeps its
	// blocking-heavy shape at test scales too (full scale: every ~40 blocks
	// a lock, every ~125 a blocking wait).
	server.LockEvery = maxInt(server.BlocksPerThread/60, 5) // shared request queue locks
	server.LockHoldBlocks = 2
	server.NumLocks = 4
	server.BlockedSyscallEvery = maxInt(server.BlocksPerThread/20, 10) // epoll/recv-style waits
	server.BlockedSyscallCycles = 8000

	client := trace.DefaultParams()
	client.AddrSpace = 2
	client.BlocksPerThread = opts.budgetBlocks(2000)
	client.MemFraction = 0.2
	client.BlockedSyscallEvery = maxInt(client.BlocksPerThread/10, 20)
	client.BlockedSyscallCycles = 4000

	serverThreads := 2 * cfg.NumCores
	clientThreads := cfg.NumCores / 2

	sys, err := boundweave.BuildSystem(cfg)
	if err != nil {
		return nil, err
	}
	sched := virt.NewScheduler(cfg.NumCores)
	sched.AddWorkload(trace.New("server", server, serverThreads))
	sched.AddWorkload(trace.New("client", client, clientThreads))
	sim := boundweave.NewSimulator(sys, sched, boundweave.Options{HostThreads: opts.hostThreads(), Seed: 11})

	start := time.Now()
	sim.Run()
	elapsed := time.Since(start)

	m := sys.Metrics()
	m.Workload = "client-server"
	m.HostNanos = elapsed.Nanoseconds()
	m.Finalize()
	sc := sched.Counts()
	return &OversubResult{
		Metrics:          m,
		HostTime:         elapsed,
		Threads:          serverThreads + clientThreads,
		Cores:            cfg.NumCores,
		Intervals:        sim.Intervals,
		BoundRounds:      sim.BoundRounds,
		MidIntervalJoins: sc.MidIntervalJoins,
		ContextSwitches:  sc.ContextSwitches,
		LockBlocks:       sc.LockBlocks,
		SyscallBlocks:    sc.SyscallBlocks,
	}, nil
}

// Format renders the experiment summary.
func (r *OversubResult) Format() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Oversubscribed client-server: %d software threads on %d cores\n", r.Threads, r.Cores)
	fmt.Fprintf(&sb, "  %d instrs in %d cycles (%.1f sim-MIPS, host %v)\n",
		r.Metrics.Instrs, r.Metrics.Cycles, r.Metrics.SimMIPS, r.HostTime.Round(time.Millisecond))
	fmt.Fprintf(&sb, "  %d intervals, %d bound rounds, %d mid-interval joins, %d context switches\n",
		r.Intervals, r.BoundRounds, r.MidIntervalJoins, r.ContextSwitches)
	fmt.Fprintf(&sb, "  %d lock blocks, %d blocking syscalls\n", r.LockBlocks, r.SyscallBlocks)
	return sb.String()
}
