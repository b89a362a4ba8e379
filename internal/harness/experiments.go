package harness

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"zsim/internal/baseline"
	"zsim/internal/boundweave"
	"zsim/internal/config"
	"zsim/internal/stats"
	"zsim/internal/telemetry"
	"zsim/internal/trace"
)

// threadSweep is the 1-6 thread sweep of the Figure 6 validation.
var threadSweep = []int{1, 2, 3, 4, 5, 6}

// Table2 prints the validated-system configuration.
func Table2(Options) (*Table, error) {
	return configTable("Table 2: validation configuration (Westmere-class)", config.WestmereValidation())
}

// Table3 prints the 1024-core tiled-chip configuration.
func Table3(Options) (*Table, error) {
	cfg := config.TiledChip(64, config.CoreOOO)
	return configTable(fmt.Sprintf("Table 3: tiled chip configuration (64 tiles, %d cores)", cfg.NumCores), cfg)
}

// configTable is a column-less table whose notes are cfg's JSON lines.
func configTable(title string, cfg *config.System) (*Table, error) {
	var b strings.Builder
	if err := cfg.WriteJSON(&b); err != nil {
		return nil, err
	}
	return &Table{Title: title, Notes: strings.Split(strings.TrimSuffix(b.String(), "\n"), "\n")}, nil
}

// Figure2 reproduces the interference characterization: a 64-core chip with
// private L1/L2 and a 16-bank shared L3 running PARSEC and SPLASH-2 style
// workloads, profiled with 1K, 10K and 100K-cycle reordering windows in one
// run per workload.
func Figure2(opts Options) (*Table, error) {
	windows := []uint64{1000, 10000, 100000}
	t := &Table{
		Title:   "Figure 2: fraction of accesses with path-altering interference",
		Key:     "workload",
		Columns: columns("%.2e", "1K cycles", "10K cycles", "100K cycles"),
	}
	tiles := max(opts.bigChipCores(64)/16, 1)
	for _, name := range trace.Figure2Names() {
		opts.logf("fig2: %s", name)
		cfg := config.TiledChip(tiles, config.CoreIPC1)
		cfg.Contention = false
		params := trace.MustLookup(name)
		params.BlocksPerThread = opts.budgetBlocks(400)
		prof := boundweave.NewInterferenceProfiler(windows...)
		if err := prof.Profile(cfg, trace.New(name, params, cfg.NumCores), opts.hostThreads()); err != nil {
			return nil, err
		}
		t.AddRow(name, prof.Fractions()...)
	}
	return t, nil
}

// Figure5 validates the OOO core model: every SPEC CPU2006-like workload runs
// on the 6-core Westmere configuration under both the golden fully-ordered
// reference (the "real machine" substitute) and the bound-weave simulator,
// and the per-workload IPC and MPKI deviations are reported.
func Figure5(opts Options) (*Table, error) {
	return validateWorkloads(opts, trace.SPECCPU2006(), 1, opts.budgetBlocks(600))
}

// Figure6Perf validates the multithreaded workloads (perf error per workload,
// Figure 6 left).
func Figure6Perf(opts Options) (*Table, error) {
	return validateWorkloads(opts, trace.Multithreaded(), 4, opts.budgetBlocks(300))
}

func validateWorkloads(opts Options, names []string, threads, blocks int) (*Table, error) {
	t := &Table{
		Title: "Validation vs golden reference (Figure 5 / Figure 6 left)",
		Key:   "workload",
		Columns: append([]Column{{"ref IPC", "%.2f"}, {"zsim IPC", "%.2f"}, {"perf err", pct}},
			columns("%.2f", "L1I err", "L1D err", "L2 err", "L3 err", "Br err")...),
	}
	levels := []string{"l1i", "l1d", "l2", "l3", "branch"} // the error columns' order
	var perfErrs []float64
	within := 0
	for _, name := range names {
		opts.logf("validate: %s", name)
		params := trace.MustLookup(name)
		params.BlocksPerThread = blocks
		params.ScaleWork = false
		golden, err := baseline.RunGolden(config.WestmereValidation(), trace.New(name, params, threads), 0)
		if err != nil {
			return nil, err
		}
		zres, err := simulate(config.WestmereValidation(), opts, 1, workload{name, params, threads})
		if err != nil {
			return nil, err
		}
		zm, gm := zres.Metrics, golden.Metrics
		perfErr := zm.PerfError(gm) // (perf_zsim - perf_real) / perf_real
		cells := []float64{gm.IPC, zm.IPC, perfErr * 100}
		for _, l := range levels {
			cells = append(cells, zm.MPKIError(gm, l))
		}
		t.AddRow(name, cells...)
		perfErrs = append(perfErrs, perfErr)
		if math.Abs(perfErr) <= 0.10 {
			within++
		}
	}
	t.Notes = []string{fmt.Sprintf("avg |perf error| = %.1f%%, workloads within 10%%: %d/%d",
		stats.MeanAbs(perfErrs)*100, within, len(names))}
	for _, l := range slices.Sorted(slices.Values(levels)) {
		col := make([]float64, len(t.Rows))
		for i, r := range t.Rows {
			col[i] = r.Cells[3+slices.Index(levels, l)]
		}
		t.Notes = append(t.Notes, fmt.Sprintf("avg |%s MPKI error| = %.2f", l, stats.MeanAbs(col)))
	}
	return t, nil
}

// Figure6Speedup reproduces the PARSEC speedup validation: each workload runs
// with 1-6 threads under the golden reference and under zsim, and the two
// speedup curves (each normalized to its own single-thread run) are compared.
func Figure6Speedup(opts Options) (*Table, error) {
	t := &Table{
		Title:   "Figure 6 (middle): PARSEC speedups, golden reference vs zsim",
		Key:     "workload/model",
		Columns: columns("%.2f", labels("%dt", threadSweep)...),
	}
	for _, name := range trace.PARSECNames() {
		opts.logf("fig6 speedup: %s", name)
		params := trace.MustLookup(name)
		params.BlocksPerThread = opts.budgetBlocks(1200)
		params.ScaleWork = true
		var realCycles, zsimCycles []float64
		for _, th := range threadSweep {
			golden, err := baseline.RunGolden(config.WestmereValidation(), trace.New(name, params, th), 0)
			if err != nil {
				return nil, err
			}
			zres, err := simulate(config.WestmereValidation(), opts, 1, workload{name, params, th})
			if err != nil {
				return nil, err
			}
			realCycles = append(realCycles, float64(golden.Metrics.Cycles))
			zsimCycles = append(zsimCycles, float64(zres.Metrics.Cycles))
		}
		t.AddRow(name+"/real", speedups(realCycles)...)
		t.AddRow(name+"/zsim", speedups(zsimCycles)...)
	}
	return t, nil
}

// speedups returns cost[0]/cost[i] for each entry (0 where undefined).
func speedups(cost []float64) []float64 {
	out := make([]float64, len(cost))
	if len(cost) == 0 || cost[0] == 0 {
		return out
	}
	for i, c := range cost {
		if c > 0 {
			out[i] = cost[0] / c
		}
	}
	return out
}

// Figure6Stream reproduces the STREAM contention-model comparison: no
// contention, the analytical M/D/1 model, the event-driven DDR3 weave model,
// the cycle-driven (DRAMSim2-style) weave model, and the golden reference
// standing in for the real machine.
func Figure6Stream(opts Options) (*Table, error) {
	t := &Table{
		Title:   "Figure 6 (right): STREAM speedup under different contention models",
		Key:     "model",
		Columns: columns("%.2f", labels("%dt", threadSweep)...),
	}
	params := trace.MustLookup("stream")
	params.BlocksPerThread = opts.budgetBlocks(900)
	params.ScaleWork = true

	// Each variant adjusts the validated single-controller configuration
	// (STREAM saturates one memory controller); nil is the golden reference.
	variants := []struct {
		name string
		mut  func(*config.System)
	}{
		{"No contention", func(c *config.System) { c.Contention = false; c.MemModel = config.MemSimple }},
		{"Anl cont (MD1)", func(c *config.System) { c.Contention = false; c.MemModel = config.MemMD1 }},
		{"Ev-driven cont", func(c *config.System) { c.Contention = true; c.WeaveMem = config.WeaveMemDDR3 }},
		{"Cycle-driven cont", func(c *config.System) { c.Contention = true; c.WeaveMem = config.WeaveMemCycleDriven }},
		{"Real (golden)", nil},
	}
	for _, v := range variants {
		opts.logf("fig6 stream: %s", v.name)
		var cycles []float64
		for _, th := range threadSweep {
			cfg := config.WestmereValidation()
			if v.mut == nil {
				golden, err := baseline.RunGolden(cfg, trace.New("stream", params, th), 0)
				if err != nil {
					return nil, err
				}
				cycles = append(cycles, float64(golden.Metrics.Cycles))
				continue
			}
			v.mut(cfg)
			zres, err := simulate(cfg, opts, 1, workload{"stream", params, th})
			if err != nil {
				return nil, err
			}
			cycles = append(cycles, float64(zres.Metrics.Cycles))
		}
		t.AddRow(v.name, speedups(cycles)...)
	}
	return t, nil
}

// Table4 measures simulation performance (MIPS and slowdown vs native-rate
// execution of the same workload) on the tiled large chip for the four model
// combinations.
func Table4(opts Options) (*Table, error) {
	t, _, err := tableForTiles(opts, max(opts.bigChipCores(1024)/16, 1), trace.Table4Names())
	return t, err
}

// tableForTiles builds Table 4 for a chip of the given number of 16-core
// tiles, one thread per core, and also returns the harmonic-mean MIPS of
// each model in AllModels order.
func tableForTiles(opts Options, tiles int, names []string) (*Table, []float64, error) {
	cores := tiles * 16
	t := &Table{Title: fmt.Sprintf("Table 4: simulation performance, %d-core chip", cores), Key: "workload"}
	for _, m := range AllModels() {
		t.Columns = append(t.Columns, Column{string(m) + " MIPS", "%.1f"}, Column{string(m) + " slow", "%.1fx"})
	}
	perModel := make([][]float64, len(AllModels()))
	for _, name := range names {
		params := trace.MustLookup(name)
		params.BlocksPerThread = opts.budgetBlocks(80)
		params.ScaleWork = false
		native := nativeRate(params, min(cores, opts.hostThreads()))
		var cells []float64
		for i, model := range AllModels() {
			opts.logf("table4: %s %s", name, model)
			cfg := config.TiledChip(tiles, model.coreModel())
			cfg.Contention = model.contention()
			zres, err := simulate(cfg, opts, 1, workload{name, params, cores})
			if err != nil {
				return nil, nil, err
			}
			mips, slowdown := zres.Metrics.SimMIPS, 0.0
			if mips > 0 && native > 0 {
				slowdown = native / mips
			}
			cells = append(cells, mips, slowdown)
			perModel[i] = append(perModel[i], mips)
		}
		t.AddRow(name, cells...)
	}
	hmeans := make([]float64, len(perModel))
	note := "harmonic-mean MIPS:"
	for i, m := range AllModels() {
		hmeans[i] = stats.HMean(perModel[i])
		note += fmt.Sprintf("  %s=%.1f", m, hmeans[i])
	}
	t.Notes = []string{note}
	return t, hmeans, nil
}

// Figure7 measures single-thread simulation speed over the SPEC-like suite
// for the four model combinations, summarizing each model's distribution.
func Figure7(opts Options) (*Table, error) {
	t := &Table{
		Title:   "Figure 7: single-thread simulation performance distribution (SPEC suite)",
		Key:     "model",
		Columns: columns("%.1f", "min MIPS", "median MIPS", "max MIPS", "hmean MIPS"),
	}
	opts.HostThreads = 1 // single-thread simulator performance
	for _, model := range AllModels() {
		var mips []float64
		for _, name := range trace.SPECCPU2006() {
			opts.logf("fig7: %s %s", name, model)
			cfg := config.WestmereValidation()
			cfg.CoreModel = model.coreModel()
			cfg.Contention = model.contention()
			params := trace.MustLookup(name)
			params.BlocksPerThread = opts.budgetBlocks(500)
			zres, err := simulate(cfg, opts, 1, workload{name, params, 1})
			if err != nil {
				return nil, err
			}
			mips = append(mips, zres.Metrics.SimMIPS)
		}
		slices.Sort(mips)
		t.AddRow(string(model), mips[0], telemetry.QuantileSorted(mips, 0.5), mips[len(mips)-1], stats.HMean(mips))
	}
	return t, nil
}

// Figure8 sweeps the number of host worker threads (powers of two up to
// Options.HostThreads) for the large-chip simulation and reports the
// simulator's speedup relative to one host thread.
func Figure8(opts Options) (*Table, error) {
	const name = "fluidanimate"
	tiles := max(opts.bigChipCores(1024)/16, 1)
	var hosts []int
	for h := 1; h <= opts.hostThreads(); h *= 2 {
		hosts = append(hosts, h)
	}
	if hosts[len(hosts)-1] != opts.hostThreads() {
		hosts = append(hosts, opts.hostThreads())
	}
	t := &Table{
		Title:   fmt.Sprintf("Figure 8: simulator speedup vs host threads (%d-core target)", tiles*16),
		Key:     "model",
		Columns: columns("%.2fx", labels("%d host", hosts)...),
	}
	params := trace.MustLookup(name)
	params.BlocksPerThread = opts.budgetBlocks(60)
	for _, model := range []ModelKind{ModelIPC1NC, ModelOOOC} {
		var times []float64
		for _, h := range hosts {
			opts.logf("fig8: %s host=%d", model, h)
			cfg := config.TiledChip(tiles, model.coreModel())
			cfg.Contention = model.contention()
			hopts := opts
			hopts.HostThreads = h
			zres, err := simulate(cfg, hopts, 1, workload{name, params, tiles * 16})
			if err != nil {
				return nil, err
			}
			times = append(times, float64(zres.Metrics.HostNanos))
		}
		t.AddRow(string(model), speedups(times)...)
	}
	return t, nil
}

// Figure9 measures aggregate simulation performance as the simulated chip
// grows (64, 256, 1024 cores in the paper; scaled by MaxCores here), using a
// subset of the Table 4 workloads.
func Figure9(opts Options) (*Table, error) {
	full := opts.bigChipCores(1024)
	// Compact drops sizes MaxCores squeezed together.
	sizes := slices.Compact([]int{max(full/16, 16), max(full/4, 16), full})
	t := &Table{Title: "Figure 9: hmean simulation MIPS vs simulated chip size", Key: "model"}
	series := make([][]float64, len(AllModels()))
	for _, cores := range sizes {
		tiles := max(cores/16, 1)
		_, hmeans, err := tableForTiles(opts, tiles, []string{"blackscholes", "fluidanimate", "ocean", "fft"})
		if err != nil {
			return nil, err
		}
		t.Columns = append(t.Columns, Column{fmt.Sprintf("%dc", tiles*16), "%.1f"})
		for i, h := range hmeans {
			series[i] = append(series[i], h)
		}
	}
	for i, m := range AllModels() {
		t.AddRow(string(m), series[i]...)
	}
	return t, nil
}

// IntervalSensitivity sweeps the bound-weave interval length (1K, 10K, 100K
// cycles) and reports the accuracy/performance trade-off, both relative to
// the 1K-cycle run.
func IntervalSensitivity(opts Options) (*Table, error) {
	const name = "fluidanimate"
	cores := opts.bigChipCores(256)
	params := trace.MustLookup(name)
	params.BlocksPerThread = opts.budgetBlocks(80)
	t := &Table{
		Title:   fmt.Sprintf("Interval-length sensitivity (%s)", name),
		Key:     "interval",
		Columns: []Column{{"perf error vs 1K", pct}, {"host speedup vs 1K", "%.2fx"}},
	}
	var baseCycles, baseTime float64
	for i, iv := range []uint64{1000, 10000, 100000} {
		opts.logf("intervals: %d", iv)
		cfg := config.TiledChip(max(cores/16, 1), config.CoreOOO)
		cfg.Contention = true
		cfg.IntervalCycles = iv
		zres, err := simulate(cfg, opts, 1, workload{name, params, cores})
		if err != nil {
			return nil, err
		}
		cycles, host := float64(zres.Metrics.Cycles), float64(zres.Metrics.HostNanos)
		if i == 0 {
			baseCycles, baseTime = cycles, host
		}
		var perfErr, speedup float64
		if baseCycles > 0 {
			perfErr = baseCycles/cycles - 1 // perf ∝ 1/cycles
		}
		if host > 0 {
			speedup = baseTime / host
		}
		t.AddRow(fmt.Sprintf("%dK cycles", iv/1000), perfErr*100, speedup)
	}
	return t, nil
}

// meshHotspotLinkBytes is the hotspot experiment's under-provisioned link
// width: 4-byte links make a line packet an 18-flit train, so the NoC
// saturates well before the banks do.
const meshHotspotLinkBytes = 4

// MeshHotspot compares a tiled mesh chip under the zero-load network model
// (the paper's Section 4.3 assumption) and under the weave-phase NoC
// contention subsystem, on a hotspot workload whose write-shared lines funnel
// coherence traffic into a few L3 banks over narrow links. It runs the
// workload at increasing thread counts under both network models and reports
// the throughput-scaling collapse the zero-load model cannot see, one row per
// thread count.
func MeshHotspot(opts Options) (*Table, error) {
	tiles := max(opts.bigChipCores(64)/16, 1)
	cores := tiles * 16
	threads := slices.Compact([]int{max(cores/4, 1), max(cores/2, 1), cores})
	// Heavily write-shared lines in a small shared region keep upgrade misses
	// and invalidations travelling through the mesh to the same few L3 banks;
	// private data stays L2-resident so coherence traffic, not DRAM, dominates.
	params := trace.DefaultParams()
	params.BlocksPerThread = opts.budgetBlocks(200)
	params.ScaleWork = false
	params.MemFraction = 0.4
	params.StoreFraction = 0.5
	params.SharedWorkingSet = 4 << 10
	params.SharedFraction = 0.7
	params.WorkingSet = 128 << 10

	var ipc [2][]float64 // zero-load, NoC-contended
	var routers [][3]float64
	for i, nocOn := range []bool{false, true} {
		for _, th := range threads {
			opts.logf("mesh-hotspot: noc=%v threads=%d", nocOn, th)
			cfg := config.TiledChip(tiles, config.CoreIPC1)
			cfg.Contention = true
			cfg.NOCContention = nocOn
			cfg.NOCLinkBytes = meshHotspotLinkBytes
			zres, err := simulate(cfg, opts, 1, workload{"mesh-hotspot", params, th})
			if err != nil {
				return nil, err
			}
			tput := 0.0
			if zres.Metrics.Cycles > 0 {
				tput = float64(zres.Metrics.Instrs) / float64(zres.Metrics.Cycles)
			}
			ipc[i] = append(ipc[i], tput)
			if nocOn {
				n := zres.NOC
				routers = append(routers, [3]float64{float64(n.QueueDelay), float64(n.QueueStalls), float64(n.MaxRouterDelay)})
			}
		}
	}
	t := &Table{
		Title: fmt.Sprintf("Mesh hotspot: zero-load vs contended NoC (%d cores, %dB links)", cores, meshHotspotLinkBytes),
		Key:   "threads",
		Columns: slices.Concat(
			columns("%.2f", "zero-load IPC", "NoC-contended IPC"),
			columns("%.2fx", "zero-load scaling", "NoC scaling"),
			columns("%.0f", "router queue delay", "router queue stalls", "hottest router delay")),
	}
	for j, th := range threads {
		t.AddRow(fmt.Sprintf("%dt", th), ipc[0][j], ipc[1][j], ipc[0][j]/ipc[0][0], ipc[1][j]/ipc[1][0],
			routers[j][0], routers[j][1], routers[j][2])
	}
	return t, nil
}

// OversubscribedClientServer runs an h-store/memcached-style workload on an
// 8-core chip with contention modeling: 16 server threads that block in
// request waits and contend on request-queue locks, plus 4 client threads
// generating bursts, all time-multiplexed by the scheduler. It reports the
// mid-interval scheduler's activity next to simulator throughput.
func OversubscribedClientServer(opts Options) (*Table, error) {
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
	server.LockEvery = max(server.BlocksPerThread/60, 5) // shared request queue locks
	server.LockHoldBlocks = 2
	server.NumLocks = 4
	server.BlockedSyscallEvery = max(server.BlocksPerThread/20, 10) // epoll/recv-style waits
	server.BlockedSyscallCycles = 8000

	client := trace.DefaultParams()
	client.AddrSpace = 2
	client.BlocksPerThread = opts.budgetBlocks(2000)
	client.MemFraction = 0.2
	client.BlockedSyscallEvery = max(client.BlocksPerThread/10, 20)
	client.BlockedSyscallCycles = 4000

	serverThreads, clientThreads := 2*cfg.NumCores, cfg.NumCores/2
	res, err := simulate(cfg, opts, 11,
		workload{"server", server, serverThreads}, workload{"client", client, clientThreads})
	if err != nil {
		return nil, err
	}
	m, s := res.Metrics, res.Sched
	t := &Table{
		Title: fmt.Sprintf("Oversubscribed client-server: %d software threads on %d cores",
			serverThreads+clientThreads, cfg.NumCores),
		Key: "run",
		Columns: slices.Concat(columns("%.0f", "instrs", "cycles"), columns("%.1f", "sim-MIPS"),
			columns("%.0f", "intervals", "bound rounds", "mid-interval joins", "context switches",
				"lock blocks", "syscall blocks")),
	}
	t.AddRow("client-server", float64(m.Instrs), float64(m.Cycles), m.SimMIPS,
		float64(res.Intervals), float64(res.BoundRounds), float64(s.MidIntervalJoins),
		float64(s.ContextSwitches), float64(s.LockBlocks), float64(s.SyscallBlocks))
	return t, nil
}
