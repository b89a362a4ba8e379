package harness

import (
	"strings"
	"testing"
	"time"

	"zsim/internal/config"
	"zsim/internal/trace"
)

// tiny returns options small enough that every experiment finishes quickly in
// unit tests while still exercising its full code path.
func tiny() Options {
	return Options{Scale: 0.01, HostThreads: 2, MaxCores: 32}
}

func TestModelKinds(t *testing.T) {
	if len(AllModels()) != 4 {
		t.Fatalf("expected 4 model combinations")
	}
	if ModelIPC1NC.coreModel() != config.CoreIPC1 || ModelOOOC.coreModel() != config.CoreOOO {
		t.Fatalf("core-model mapping wrong")
	}
	if ModelIPC1NC.contention() || !ModelOOOC.contention() {
		t.Fatalf("contention mapping wrong")
	}
}

func TestOptionsHelpers(t *testing.T) {
	o := Options{}
	if o.hostThreads() < 1 {
		t.Fatalf("default host threads should be positive")
	}
	o = Options{Scale: 0.001}
	if o.budgetBlocks(1000) < 50 {
		t.Fatalf("budget should clamp to a minimum")
	}
	o = Options{MaxCores: 64}
	if o.bigChipCores(1024) != 64 {
		t.Fatalf("MaxCores should cap the chip size")
	}
	if o.bigChipCores(16) != 16 {
		t.Fatalf("small requests pass through")
	}
	if DefaultOptions().Scale != 1.0 || TestOptions().Scale >= 1.0 {
		t.Fatalf("canned options wrong")
	}
}

func TestRunZSimAndNativeRate(t *testing.T) {
	cfg := config.SmallTest()
	params := trace.DefaultParams()
	params.BlocksPerThread = 200
	res, err := runZSim(cfg, "unit", params, 2, tiny())
	if err != nil {
		t.Fatalf("runZSim: %v", err)
	}
	if res.Metrics.Instrs == 0 || res.Metrics.SimMIPS <= 0 || res.HostNanos <= 0 {
		t.Fatalf("runZSim should produce timing data: %+v", res.Metrics)
	}
	if rate := nativeRate(params, 2); rate <= 0 {
		t.Fatalf("native rate should be positive, got %f", rate)
	}
}

func TestTableFormatter(t *testing.T) {
	out := table([]string{"a", "bee"}, [][]string{{"1", "2"}, {"longer", "x"}})
	if !strings.Contains(out, "a") || !strings.Contains(out, "longer") {
		t.Fatalf("table output malformed:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Fatalf("expected header, separator and 2 rows, got %d lines", len(lines))
	}
}

func TestTable2And3(t *testing.T) {
	if !strings.Contains(Table2(), "westmere-6c") {
		t.Fatalf("Table 2 should describe the Westmere config")
	}
	if !strings.Contains(Table3(4), "64 cores") {
		t.Fatalf("Table 3 should describe the tiled chip")
	}
}

func TestFigure2Small(t *testing.T) {
	opts := tiny()
	opts.MaxCores = 16
	res, err := Figure2(opts)
	if err != nil {
		t.Fatalf("Figure2: %v", err)
	}
	if len(res.Workloads) != 10 || len(res.Intervals) != 3 {
		t.Fatalf("Figure 2 shape wrong")
	}
	for _, w := range res.Workloads {
		fr := res.Fractions[w]
		if len(fr) != 3 {
			t.Fatalf("missing fractions for %s", w)
		}
		for _, f := range fr {
			if f < 0 || f > 1 {
				t.Fatalf("fraction out of range for %s: %v", w, fr)
			}
		}
		// The key claim: interference does not shrink as the interval grows.
		if fr[2] < fr[0] {
			t.Fatalf("interference should not shrink with longer intervals for %s: %v", w, fr)
		}
	}
	if !strings.Contains(res.Format(), "Figure 2") {
		t.Fatalf("formatter broken")
	}
}

func TestValidationSmall(t *testing.T) {
	// Run the validation machinery on a 3-workload subset to keep the test
	// fast while covering the full code path (golden + zsim + error math).
	opts := tiny()
	res, err := validateWorkloads(opts, []string{"namd", "mcf", "povray"}, 1, opts.budgetBlocks(300))
	if err != nil {
		t.Fatalf("validateWorkloads: %v", err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("expected 3 rows")
	}
	for _, row := range res.Rows {
		if row.RealIPC <= 0 || row.ZsimIPC <= 0 {
			t.Fatalf("IPCs should be positive: %+v", row)
		}
		if abs(row.PerfError) > 1.0 {
			t.Fatalf("perf error implausibly large for %s: %f", row.Workload, row.PerfError)
		}
	}
	// mcf (memory bound) must have a lower reference IPC than namd
	// (compute bound) — the behavioural envelope the registry encodes.
	var namdIPC, mcfIPC float64
	for _, row := range res.Rows {
		switch row.Workload {
		case "namd":
			namdIPC = row.RealIPC
		case "mcf":
			mcfIPC = row.RealIPC
		}
	}
	if mcfIPC >= namdIPC {
		t.Fatalf("mcf should be slower than namd: %f vs %f", mcfIPC, namdIPC)
	}
	out := res.Format()
	if !strings.Contains(out, "avg |perf error|") {
		t.Fatalf("formatter broken")
	}
}

func TestFigure6StreamSmall(t *testing.T) {
	opts := tiny()
	// The contention-vs-no-contention gap needs enough accesses per thread
	// for queueing to build up at the memory controller; at the default tiny
	// scale the honest (arrival-ordered) DDR3 model sees almost no backlog.
	opts.Scale = 0.1
	res, err := Figure6Stream(opts)
	if err != nil {
		t.Fatalf("Figure6Stream: %v", err)
	}
	if len(res.Series) != 5 {
		t.Fatalf("expected 5 contention series, got %d", len(res.Series))
	}
	nc := res.Series["No contention"]
	ev := res.Series["Ev-driven cont"]
	if len(nc) != 6 || len(ev) != 6 {
		t.Fatalf("series should cover 1-6 threads")
	}
	// The headline claim of Figure 6 (right): ignoring contention makes
	// STREAM scale much better than the detailed contention model allows.
	if nc[5] <= ev[5] {
		t.Fatalf("no-contention STREAM should scale better than event-driven contention: %.2f vs %.2f", nc[5], ev[5])
	}
	if !strings.Contains(res.Format(), "STREAM") {
		t.Fatalf("formatter broken")
	}
}

func TestTable4Small(t *testing.T) {
	opts := tiny()
	opts.MaxCores = 32
	// MIPS is wall-clock, so the OOO-C vs IPC1-NC check below needs runs long
	// enough that a parallel test binary taking the CPU for a moment cannot
	// slow one model's reading several-fold: 800 blocks per thread (tens of
	// milliseconds per model) instead of tiny()'s 50 (about one millisecond).
	opts.Scale = 10
	res, err := tableForCores(opts, 32, []string{"blackscholes", "stream"})
	if err != nil {
		t.Fatalf("tableForCores: %v", err)
	}
	if res.Cores != 32 || len(res.Rows) != 2 {
		t.Fatalf("table shape wrong: %+v", res)
	}
	for _, row := range res.Rows {
		for _, m := range AllModels() {
			if row.MIPS[m] <= 0 {
				t.Fatalf("%s/%s should have positive MIPS", row.Workload, m)
			}
		}
		// Detailed contention models must not be faster than the simplest
		// model for the same workload.
		if row.MIPS[ModelOOOC] > row.MIPS[ModelIPC1NC]*1.5 {
			t.Fatalf("OOO-C should not be much faster than IPC1-NC: %+v", row.MIPS)
		}
	}
	for _, m := range AllModels() {
		if res.HMeanMIPS[m] <= 0 {
			t.Fatalf("hmean MIPS missing for %s", m)
		}
	}
	if !strings.Contains(res.Format(), "Table 4") {
		t.Fatalf("formatter broken")
	}
}

func TestFigure9Small(t *testing.T) {
	opts := tiny()
	opts.MaxCores = 32
	res, err := Figure9(opts)
	if err != nil {
		t.Fatalf("Figure9: %v", err)
	}
	if len(res.Cores) == 0 {
		t.Fatalf("Figure 9 should report at least one chip size")
	}
	for _, m := range AllModels() {
		if len(res.HMeanMIPS[m]) != len(res.Cores) {
			t.Fatalf("missing series for %s", m)
		}
	}
	if !strings.Contains(res.Format(), "Figure 9") {
		t.Fatalf("formatter broken")
	}
}

func TestIntervalSensitivitySmall(t *testing.T) {
	opts := tiny()
	opts.MaxCores = 32
	res, err := IntervalSensitivity(opts, "")
	if err != nil {
		t.Fatalf("IntervalSensitivity: %v", err)
	}
	if len(res.PerfError) != 3 || len(res.HostSpeedup) != 3 {
		t.Fatalf("sweep shape wrong: %+v", res)
	}
	if res.PerfError[0] != 0 || res.HostSpeedup[0] != 1 {
		t.Fatalf("baseline point should be exactly 1K-relative: %+v", res)
	}
	if !strings.Contains(res.Format(), "Interval-length") {
		t.Fatalf("formatter broken")
	}
}

func TestFigure8Small(t *testing.T) {
	opts := tiny()
	opts.MaxCores = 32
	opts.HostThreads = 2
	res, err := Figure8(opts, "blackscholes")
	if err != nil {
		t.Fatalf("Figure8: %v", err)
	}
	if len(res.HostThreads) == 0 {
		t.Fatalf("host-thread sweep missing")
	}
	for _, m := range []ModelKind{ModelIPC1NC, ModelOOOC} {
		sp := res.Speedup[m]
		if len(sp) != len(res.HostThreads) {
			t.Fatalf("missing speedup series for %s", m)
		}
		if sp[0] != 1 {
			t.Fatalf("speedup should be normalized to 1 host thread")
		}
	}
	if !strings.Contains(res.Format(), "Figure 8") {
		t.Fatalf("formatter broken")
	}
}

func TestOversubscribedClientServer(t *testing.T) {
	res, err := OversubscribedClientServer(TestOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Threads <= res.Cores {
		t.Fatalf("experiment must be oversubscribed: %d threads on %d cores", res.Threads, res.Cores)
	}
	if res.Metrics.Instrs == 0 || res.Metrics.Cycles == 0 {
		t.Fatalf("no work simulated: %+v", res.Metrics)
	}
	if res.SyscallBlocks == 0 || res.LockBlocks == 0 {
		t.Fatalf("workload should block on syscalls and locks: %+v", res)
	}
	if res.MidIntervalJoins == 0 {
		t.Fatalf("blocking threads should trigger mid-interval joins")
	}
	if s := res.Format(); !strings.Contains(s, "mid-interval joins") {
		t.Fatalf("formatter output incomplete: %s", s)
	}
}

// TestMeshHotspotSmall exercises the NoC contention experiment end to end:
// both series run, the contended series observes non-zero router queueing,
// and the formatter renders every row.
func TestMeshHotspotSmall(t *testing.T) {
	opts := tiny()
	opts.Scale = 0.1 // enough traffic that router ports actually back up
	res, err := MeshHotspot(opts)
	if err != nil {
		t.Fatalf("MeshHotspot: %v", err)
	}
	if len(res.Threads) == 0 || len(res.ThroughputNoC) != len(res.Threads) ||
		len(res.ThroughputZeroLoad) != len(res.Threads) {
		t.Fatalf("series/threads mismatch: %+v", res)
	}
	totalDelay := uint64(0)
	for _, d := range res.QueueDelay {
		totalDelay += d
	}
	if totalDelay == 0 {
		t.Fatalf("hotspot run should observe non-zero router queueing delay")
	}
	out := res.Format()
	for _, want := range []string{"zero-load IPC", "NoC scaling", "router queue delay"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Format missing %q:\n%s", want, out)
		}
	}
}

// TestTimeoutFailsLoudly: a run that blows its wall-clock budget must turn
// into an explicit error (typed by the watchdog reason), never into
// silently-truncated table rows or a hung suite.
func TestTimeoutFailsLoudly(t *testing.T) {
	opts := tiny()
	opts.Timeout = 1 * time.Nanosecond // every run overruns immediately
	p := trace.DefaultParams()
	p.BlocksPerThread = 100000
	if _, err := runZSim(config.SmallTest(), "timeout-probe", p, 2, opts); err == nil {
		t.Fatalf("overrunning run should report an error")
	} else if !strings.Contains(err.Error(), "deadline-exceeded") {
		t.Fatalf("error should carry the typed reason, got: %v", err)
	}
}
