package main

import (
	"fmt"
	"maps"
	"math"
	"slices"
	"time"

	"zsim/internal/config"
)

// options are the settings one invocation measures under.
type options struct {
	seed    uint64
	seconds float64 // length of the untraced window
	host    int     // GOMAXPROCS and bound-phase host threads
	// untraced and traced select the passes: end-to-end metrics come from
	// the first, per-layer metrics from the second.
	untraced, traced bool
	tracedSeconds    float64 // length of the traced pass
}

// minReps is the fewest reps a pass accepts, however slow the host.
const minReps = 3

// runSimWorkload measures one simulation workload: a discarded warm-up rep,
// then the untraced window and/or the traced pass.
func runSimWorkload(w *simWorkload, o options, kernels map[string]metric, goldenErr float64) (*workloadResult, error) {
	res := &workloadResult{Name: w.name, Why: w.why, RepSize: make(map[string]int)}
	blocks := 0
	for _, p := range w.procs(o.seed) {
		res.RepSize[p.name+".threads"] = p.threads
		res.RepSize[p.name+".blocksPerThread"] = p.params.BlocksPerThread
		blocks += p.threads * p.params.BlocksPerThread
	}
	// Warm-up, discarded: the Go heap grows to the workload's size and the
	// page cache of lazily touched cache sets is paid once, off the clock.
	if _, err := runSimRep(w, o.seed, o.host, false); err != nil {
		return nil, err
	}
	if o.untraced {
		if err := simUntraced(w, o, res, goldenErr); err != nil {
			return nil, err
		}
	}
	if o.traced {
		if err := simTraced(w, o, res, kernels, blocks); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// simUntraced runs reps back to back for o.seconds with tracing off, checks
// every rep's signature and fills the end-to-end metrics.
func simUntraced(w *simWorkload, o options, res *workloadResult, goldenErr float64) error {
	var reps []*simRep
	deadline := time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
	for len(reps)+res.Failed < minReps || time.Now().Before(deadline) {
		res.Attempted++
		rep, err := runSimRep(w, o.seed, o.host, false)
		if err != nil {
			res.Failed++
			res.note("rep %d: %v", res.Attempted, err)
			if res.Failed >= minReps {
				return fmt.Errorf("%s: %d reps failed, giving up: %w", w.name, res.Failed, err)
			}
			continue
		}
		reps = append(reps, rep)
	}
	checkSignatures(w, o.host, reps, res)
	if w.peer != "" {
		if err := checkPeer(w, o, reps, res); err != nil {
			return err
		}
	}

	var mips, setup, alloc, live, latency []float64
	var busy float64
	for _, r := range reps {
		mips = append(mips, float64(r.sig.Instrs)/r.runS/1e6)
		setup = append(setup, r.setupS())
		alloc = append(alloc, r.allocMB)
		live = append(live, r.liveHeapMB)
		latency = append(latency, (r.setupS()+r.runS)*1e3)
		busy += r.setupS() + r.runS
	}
	// The service metrics are defined on zsimd-mix only; here they are padding
	// for the driver's result line (see driverLine): a job is one rep built
	// from scratch, a campaign point is one such job, and with 15-50 reps the
	// latency tail is the highest percentile that has ten reps beyond it.
	p95, _ := resolved(latency, 95)
	jobsPerS := float64(len(reps)) / busy
	res.setEndToEnd([]metric{
		newMetric("sim_mips", mips),
		newMetric("setup_s", setup),
		newMetric("alloc_mb_per_run", alloc),
		newMetric("live_heap_mb", live),
		single("golden_err_pct", goldenErr, 3),
		single("jobs_per_s", jobsPerS, len(reps)),
		newMetric("job_latency_ms_p50", latency),
		single("job_latency_ms_p95", p95, len(latency)),
		single("campaign_points_per_s", jobsPerS, len(reps)),
	})
	return nil
}

// checkSignatures holds every rep to the workload's repeatability contract:
// bit-equal signatures inside the determinism envelope, instrs and cycles
// within tolerance of the window's median outside it.
func checkSignatures(w *simWorkload, host int, reps []*simRep, res *workloadResult) {
	if len(reps) == 0 {
		return
	}
	if w.exact {
		first := reps[0].sig
		res.Signature = &first
		for i, r := range reps[1:] {
			if r.sig != first {
				res.Failed++
				res.note("rep %d: signature %+v differs from rep 1's %+v", i+2, r.sig, first)
			}
		}
		return
	}
	instrs, cycles := instrsAndCycles(reps)
	mi, mc := median(instrs), median(cycles)
	for i, r := range reps {
		if !within(float64(r.sig.Instrs), mi, w.instrsTol) || !within(float64(r.sig.Cycles), mc, w.cyclesTol) {
			res.Failed++
			res.note("rep %d: instrs %d cycles %d outside %.2g/%.2g of the medians %.0f/%.0f", i+1, r.sig.Instrs, r.sig.Cycles, w.instrsTol, w.cyclesTol, mi, mc)
		}
	}
	ilo, ihi := slices.Min(instrs), slices.Max(instrs)
	clo, chi := slices.Min(cycles), slices.Max(cycles)
	res.note("outside the determinism envelope at GOMAXPROCS=%d (shared data): held to instrs within %.2g and cycles within %.2g of the median; over %d reps instrs ranged %.3f%% and cycles %.2f%% (%+.2f%%..%+.2f%% of the median)",
		host, w.instrsTol, w.cyclesTol, len(reps), (ihi-ilo)/mi*100, (chi-clo)/mc*100, (clo-mc)/mc*100, (chi-mc)/mc*100)
}

// checkPeer runs one rep of the peer workload (same inputs, other weave
// mode) and holds it to this workload's medians within the same tolerance.
func checkPeer(w *simWorkload, o options, reps []*simRep, res *workloadResult) error {
	peer := findSimWorkload(w.peer)
	pr, err := runSimRep(peer, o.seed, o.host, false)
	if err != nil {
		return err
	}
	instrs, cycles := instrsAndCycles(reps)
	res.Attempted++
	if !within(float64(pr.sig.Instrs), median(instrs), w.instrsTol) || !within(float64(pr.sig.Cycles), median(cycles), w.cyclesTol) {
		res.Failed++
		res.note("%s disagrees: instrs %d cycles %d against medians %.0f/%.0f", peer.name, pr.sig.Instrs, pr.sig.Cycles, median(instrs), median(cycles))
	}
	return nil
}

func within(v, ref, tol float64) bool { return math.Abs(v-ref) <= tol*ref }

func instrsAndCycles(reps []*simRep) (instrs, cycles []float64) {
	for _, r := range reps {
		instrs = append(instrs, float64(r.sig.Instrs))
		cycles = append(cycles, float64(r.sig.Cycles))
	}
	return instrs, cycles
}

// simTraced alternates untraced and traced reps for o.tracedSeconds and fills
// the per-layer metrics: probe and counter readings as medians over the
// traced reps, the layer kernels, and the cost-model reconciliation.
func simTraced(w *simWorkload, o options, res *workloadResult, kernels map[string]metric, blocks int) error {
	var plain, traced []*simRep
	deadline := time.Now().Add(time.Duration(o.tracedSeconds * float64(time.Second)))
	for len(traced) < minReps || time.Now().Before(deadline) {
		p, err := runSimRep(w, o.seed, o.host, false)
		if err != nil {
			return err
		}
		t, err := runSimRep(w, o.seed, o.host, true)
		if err != nil {
			return err
		}
		plain, traced = append(plain, p), append(traced, t)
	}
	if !o.untraced {
		res.Attempted += len(traced) + len(plain)
		checkSignatures(w, o.host, append(plain, traced...), res)
	}

	got := maps.Clone(kernels)
	// med is a reading's median over a pass's reps; over also files it as a metric.
	med := func(reps []*simRep, f func(r *simRep) float64) float64 {
		v := make([]float64, len(reps))
		for i, r := range reps {
			v[i] = f(r)
		}
		return median(v)
	}
	over := func(name string, f func(r *simRep) float64) float64 {
		v := make([]float64, len(traced))
		for i, r := range traced {
			v[i] = f(r)
		}
		got[name] = newMetric(name, v)
		return got[name].Value
	}
	sec := func(ns int64) float64 { return float64(ns) / 1e9 }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	bound := over("boundweave.bound_s", func(r *simRep) float64 { return sec(r.snap.BoundNanos) })
	weave := over("boundweave.weave_s", func(r *simRep) float64 { return sec(r.snap.WeaveNanos) })
	// run = bound + weave + other by construction.
	other := over("boundweave.other_s", func(r *simRep) float64 { return r.runS - sec(r.snap.BoundNanos) - sec(r.snap.WeaveNanos) })
	intervals := over("boundweave.intervals", func(r *simRep) float64 { return float64(r.snap.Intervals) })
	rounds := over("boundweave.bound_rounds", func(r *simRep) float64 { return float64(r.snap.BoundRounds) })
	over("boundweave.ns_per_interval", func(r *simRep) float64 { return ratio(r.runS*1e9, float64(r.snap.Intervals)) })
	over("boundweave.build_system_s", func(r *simRep) float64 { return r.buildSystemS })
	over("boundweave.new_simulator_s", func(r *simRep) float64 { return r.newSimulatorS })
	over("trace.workload_build_s", func(r *simRep) float64 { return r.workloadBuildS })
	events := over("event.weave_events", func(r *simRep) float64 { return float64(r.snap.WeaveEvents) })
	over("event.ns_per_event", func(r *simRep) float64 { return ratio(float64(r.snap.WeaveNanos), float64(r.snap.WeaveEvents)) })
	over("event.stall_s", func(r *simRep) float64 { return sec(r.snap.StallNanos) })
	over("event.horizon_parks", func(r *simRep) float64 { return float64(r.snap.HorizonParks) })
	over("event.domain_wakes", func(r *simRep) float64 { return float64(r.snap.DomainWakes) })
	over("event.handoffs_per_event", func(r *simRep) float64 {
		return ratio(float64(r.snap.CrossHandoffs), float64(r.snap.WeaveEvents))
	})
	over("engine.pool_runs", func(r *simRep) float64 { return float64(r.snap.PoolRuns) })
	over("engine.pool_wakes", func(r *simRep) float64 { return float64(r.snap.PoolWakes) })
	over("virt.context_switches", func(r *simRep) float64 { return float64(r.sched.ContextSwitches) })
	over("virt.mid_interval_joins", func(r *simRep) float64 { return float64(r.sched.MidIntervalJoins) })
	over("virt.lock_blocks", func(r *simRep) float64 { return float64(r.sched.LockBlocks) })
	over("virt.syscall_blocks", func(r *simRep) float64 { return float64(r.sched.SyscallBlocks) })
	traversals := over("noc.traversals", func(r *simRep) float64 { return float64(r.noc.Traversals) })
	over("noc.port_conflicts", func(r *simRep) float64 { return float64(r.noc.PortConflicts) })
	over("noc.queue_delay_cycles", func(r *simRep) float64 { return float64(r.noc.QueueDelay) })
	over("core.sim_ipc", func(r *simRep) float64 { return r.metrics.IPC })
	over("cache.l1d_mpki", func(r *simRep) float64 { return r.metrics.L1DMPKI })
	over("cache.l2_mpki", func(r *simRep) float64 { return r.metrics.L2MPKI })
	over("cache.l3_mpki", func(r *simRep) float64 { return r.metrics.L3MPKI })
	over("arena.bytes", func(r *simRep) float64 { return float64(r.arenaBytes) })
	over("arena.chunks", func(r *simRep) float64 { return float64(r.arenaChunks) })

	// Each traced rep is held against the untraced rep run just before it, so
	// a host that drifts during the pass moves both sides of every pair.
	run := med(traced, func(r *simRep) float64 { return r.runS })
	overhead := make([]float64, len(traced))
	for i, t := range traced {
		overhead[i] = t.runS/plain[i].runS - 1
	}
	got["trace_overhead_frac"] = newMetric("trace_overhead_frac", overhead)

	// Cost-model reconciliation: what the layer kernels, multiplied by the
	// counts of the traced run, explain of the run's host time. Reported, not
	// gated.
	k := func(name string) float64 { return kernels[name].Value }
	count := func(f func(r *simRep) uint64) float64 {
		return med(traced, func(r *simRep) float64 { return float64(f(r)) })
	}
	cfg := w.cfg()
	corePerInstr, weavePerEvent := k("core.ooo_ns_per_instr"), k("event.par2_ns_per_event")
	if cfg.CoreModel == config.CoreIPC1 {
		corePerInstr = k("core.ipc1_ns_per_instr")
	}
	if cfg.WeaveModeKind == config.WeaveSerial || o.host < 2 {
		weavePerEvent = k("event.serial_ns_per_event")
	}
	perInterval := k("virt.interval_ns_6c")
	switch {
	case cfg.NumCores >= 512:
		perInterval = k("virt.interval_ns_1024c")
	case cfg.NumCores >= 32:
		perInterval = k("virt.interval_ns_64c")
	}
	memAccesses := count(func(r *simRep) uint64 { return r.memAccesses })
	modelNS := count(func(r *simRep) uint64 { return r.sig.Instrs })*corePerInstr +
		float64(blocks)*k("trace.ns_per_block") +
		count(func(r *simRep) uint64 { return r.l1Hits })*k("cache.l1_hit_ns") +
		count(func(r *simRep) uint64 { return r.l2Hits })*k("cache.l2_hit_ns") +
		count(func(r *simRep) uint64 { return r.l3Hits })*k("cache.l3_hit_ns") +
		memAccesses*k("cache.mem_ns") +
		intervals*perInterval + rounds*k("engine.pool_run_ns")
	if cfg.Contention {
		modelNS += count(func(r *simRep) uint64 { return r.sig.L2Misses })*k("boundweave.recorder_ns_per_access") +
			events*weavePerEvent + traversals*k("noc.router_ns_per_schedule") +
			memAccesses*k("memctrl.ddr3_ns_per_request")
	}
	got["model.residual_frac"] = single("model.residual_frac", (run*1e9-modelNS)/(run*1e9), len(traced))
	res.note("traced run %.3f s = bound %.0f%% + weave %.0f%% + other %.0f%%", run, bound/run*100, weave/run*100, other/run*100)
	res.PerLayer = inOrder(perLayerDefs, got)
	return nil
}
