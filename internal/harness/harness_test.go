package harness

import (
	"slices"
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

// cell reads the value in the named row and column of tab from its Rows and
// Columns, failing the test when either is missing.
func cell(t *testing.T, tab *Table, row, col string) float64 {
	t.Helper()
	v, ok := lookupCell(tab, row, col)
	if !ok {
		t.Fatalf("%q has no cell (%q, %q):\n%s", tab.Title, row, col, tab.Format())
	}
	return v
}

func lookupCell(tab *Table, row, col string) (float64, bool) {
	c := slices.IndexFunc(tab.Columns, func(c Column) bool { return c.Name == col })
	r := slices.IndexFunc(tab.Rows, func(r Row) bool { return r.Name == row })
	if c < 0 || r < 0 || c >= len(tab.Rows[r].Cells) {
		return 0, false
	}
	return tab.Rows[r].Cells[c], true
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
}

func TestSimulateAndNativeRate(t *testing.T) {
	params := trace.DefaultParams()
	params.BlocksPerThread = 200
	res, err := simulate(config.SmallTest(), tiny(), 1, workload{"unit", params, 2})
	if err != nil {
		t.Fatalf("simulate: %v", err)
	}
	if res.Metrics.Instrs == 0 || res.Metrics.SimMIPS <= 0 || res.Metrics.HostNanos <= 0 {
		t.Fatalf("simulate should produce timing data: %+v", res.Metrics)
	}
	if rate := nativeRate(params, 2); rate <= 0 {
		t.Fatalf("native rate should be positive, got %f", rate)
	}
}

func TestTableFormatter(t *testing.T) {
	tab := &Table{Title: "T", Key: "a", Columns: []Column{{"bee", "%.1f"}, {"pct", pct}}, Notes: []string{"note"}}
	tab.AddRow("1", 2, 50)
	tab.AddRow("longer", 3.25, -1)
	out := tab.Format()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 7 || lines[0] != "T" || lines[6] != "note" {
		t.Fatalf("expected title, header, separator, 2 rows, blank line and note:\n%s", out)
	}
	if lines[1] != "a       bee  pct" || lines[4] != "longer  3.2  -1.0%" {
		t.Fatalf("columns not aligned or formatted:\n%s", out)
	}
	if v := cell(t, tab, "longer", "bee"); v != 3.25 {
		t.Fatalf("cell(longer, bee) = %v", v)
	}
	if _, ok := lookupCell(tab, "1", "nope"); ok {
		t.Fatalf("missing column should not be found")
	}
}

func TestTable2And3(t *testing.T) {
	t2, _ := Table2(Options{})
	t3, _ := Table3(Options{})
	if !strings.Contains(t2.Format(), "westmere-6c") {
		t.Fatalf("Table 2 should describe the Westmere config")
	}
	if !strings.Contains(t3.Format(), "1024 cores") {
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
	if len(res.Rows) != 10 || len(res.Columns) != 3 {
		t.Fatalf("Figure 2 shape wrong:\n%s", res.Format())
	}
	for _, r := range res.Rows {
		fr := r.Cells
		for _, f := range fr {
			if f < 0 || f > 1 {
				t.Fatalf("fraction out of range for %s: %v", r.Name, fr)
			}
		}
		// The key claim: interference does not shrink as the interval grows.
		if fr[2] < fr[0] {
			t.Fatalf("interference should not shrink with longer intervals for %s: %v", r.Name, fr)
		}
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
	for _, r := range res.Rows {
		if cell(t, res, r.Name, "ref IPC") <= 0 || cell(t, res, r.Name, "zsim IPC") <= 0 {
			t.Fatalf("IPCs should be positive: %+v", r)
		}
		if e := cell(t, res, r.Name, "perf err"); e > 100 || e < -100 {
			t.Fatalf("perf error implausibly large for %s: %f%%", r.Name, e)
		}
	}
	// mcf (memory bound) must have a lower reference IPC than namd
	// (compute bound) — the behavioural envelope the registry encodes.
	if mcf, namd := cell(t, res, "mcf", "ref IPC"), cell(t, res, "namd", "ref IPC"); mcf >= namd {
		t.Fatalf("mcf should be slower than namd: %f vs %f", mcf, namd)
	}
	if !strings.Contains(res.Format(), "avg |perf error|") {
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
	if len(res.Rows) != 5 || len(res.Columns) != 6 {
		t.Fatalf("expected 5 contention series over 1-6 threads:\n%s", res.Format())
	}
	// The headline claim of Figure 6 (right): ignoring contention makes
	// STREAM scale much better than the detailed contention model allows.
	if nc, ev := cell(t, res, "No contention", "6t"), cell(t, res, "Ev-driven cont", "6t"); nc <= ev {
		t.Fatalf("no-contention STREAM should scale better than event-driven contention: %.2f vs %.2f", nc, ev)
	}
}

func TestTable4Small(t *testing.T) {
	opts := tiny()
	// MIPS is wall-clock, so the OOO-C vs IPC1-NC check below needs runs long
	// enough that a parallel test binary taking the CPU for a moment cannot
	// slow one model's reading several-fold: 800 blocks per thread (tens of
	// milliseconds per model) instead of tiny()'s 50 (about one millisecond).
	opts.Scale = 10
	res, hmeans, err := tableForTiles(opts, 2, []string{"blackscholes", "stream"})
	if err != nil {
		t.Fatalf("tableForTiles: %v", err)
	}
	if !strings.HasPrefix(res.Title, "Table 4: simulation performance, 32-core chip") || len(res.Rows) != 2 {
		t.Fatalf("table shape wrong:\n%s", res.Format())
	}
	for _, r := range res.Rows {
		for _, m := range AllModels() {
			if cell(t, res, r.Name, string(m)+" MIPS") <= 0 {
				t.Fatalf("%s/%s should have positive MIPS", r.Name, m)
			}
		}
		// Detailed contention models must not be faster than the simplest
		// model for the same workload.
		if cell(t, res, r.Name, "OOO-C MIPS") > cell(t, res, r.Name, "IPC1-NC MIPS")*1.5 {
			t.Fatalf("OOO-C should not be much faster than IPC1-NC:\n%s", res.Format())
		}
	}
	for i, m := range AllModels() {
		if hmeans[i] <= 0 {
			t.Fatalf("hmean MIPS missing for %s", m)
		}
	}
}

func TestFigure9Small(t *testing.T) {
	res, err := Figure9(tiny())
	if err != nil {
		t.Fatalf("Figure9: %v", err)
	}
	if len(res.Columns) == 0 || len(res.Rows) != len(AllModels()) {
		t.Fatalf("Figure 9 should report every model at one chip size or more:\n%s", res.Format())
	}
	for _, r := range res.Rows {
		if len(r.Cells) != len(res.Columns) {
			t.Fatalf("missing points for %s", r.Name)
		}
	}
}

func TestIntervalSensitivitySmall(t *testing.T) {
	res, err := IntervalSensitivity(tiny())
	if err != nil {
		t.Fatalf("IntervalSensitivity: %v", err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("sweep shape wrong:\n%s", res.Format())
	}
	if cell(t, res, "1K cycles", "perf error vs 1K") != 0 || cell(t, res, "1K cycles", "host speedup vs 1K") != 1 {
		t.Fatalf("baseline point should be exactly 1K-relative:\n%s", res.Format())
	}
}

func TestFigure8Small(t *testing.T) {
	res, err := Figure8(tiny())
	if err != nil {
		t.Fatalf("Figure8: %v", err)
	}
	if !strings.Contains(res.Title, "(32-core target)") {
		t.Fatalf("title should name the simulated chip size: %q", res.Title)
	}
	if len(res.Columns) != 2 || len(res.Rows) != 2 {
		t.Fatalf("expected 1 and 2 host threads for two models:\n%s", res.Format())
	}
	for _, r := range res.Rows {
		if cell(t, res, r.Name, "1 host") != 1 {
			t.Fatalf("speedup should be normalized to 1 host thread")
		}
	}
}

// TestFigure8HonoursTimeout: the host-thread sweep overrides only the host
// thread count, so the caller's wall-clock budget still stops its runs.
func TestFigure8HonoursTimeout(t *testing.T) {
	opts := tiny()
	opts.Scale = 20 // long enough that the watchdog fires well before the end
	opts.Timeout = time.Nanosecond
	if _, err := Figure8(opts); err == nil || !strings.Contains(err.Error(), "deadline-exceeded") {
		t.Fatalf("Figure8 should fail with the typed deadline reason, got: %v", err)
	}
}

func TestOversubscribedClientServer(t *testing.T) {
	res, err := OversubscribedClientServer(Options{Scale: 0.02, HostThreads: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Title, "20 software threads on 8 cores") {
		t.Fatalf("experiment must be oversubscribed: %q", res.Title)
	}
	get := func(col string) float64 { return cell(t, res, "client-server", col) }
	if get("instrs") == 0 || get("cycles") == 0 {
		t.Fatalf("no work simulated:\n%s", res.Format())
	}
	if get("syscall blocks") == 0 || get("lock blocks") == 0 {
		t.Fatalf("workload should block on syscalls and locks:\n%s", res.Format())
	}
	if get("mid-interval joins") == 0 {
		t.Fatalf("blocking threads should trigger mid-interval joins")
	}
}

// TestMeshHotspotSmall exercises the NoC contention experiment end to end:
// both series run and the contended series observes non-zero router
// queueing.
func TestMeshHotspotSmall(t *testing.T) {
	opts := tiny()
	opts.Scale = 0.1 // enough traffic that router ports actually back up
	res, err := MeshHotspot(opts)
	if err != nil {
		t.Fatalf("MeshHotspot: %v", err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("expected three thread counts:\n%s", res.Format())
	}
	total := 0.0
	for _, r := range res.Rows {
		total += cell(t, res, r.Name, "router queue delay")
	}
	if total == 0 {
		t.Fatalf("hotspot run should observe non-zero router queueing delay")
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
	if _, err := simulate(config.SmallTest(), opts, 1, workload{"timeout-probe", p, 2}); err == nil {
		t.Fatalf("overrunning run should report an error")
	} else if !strings.Contains(err.Error(), "deadline-exceeded") {
		t.Fatalf("error should carry the typed reason, got: %v", err)
	}
}

// TestPinnedValues pins simulated numbers of several experiments at one host
// thread, where runs are deterministic. The literals were recorded before the
// experiments moved onto the zsim facade; any change to them is a change in
// what the experiments simulate.
func TestPinnedValues(t *testing.T) {
	opts := Options{Scale: 0.02, HostThreads: 1, MaxCores: 16}
	check := func(tab *Table, rows []string, cols []string, want [][]float64) {
		t.Helper()
		for i, r := range rows {
			for j, c := range cols {
				if got := cell(t, tab, r, c); got != want[i][j] {
					t.Errorf("%s: (%s, %s) = %v, want %v", tab.Title, r, c, got, want[i][j])
				}
			}
		}
	}
	run := func(f func(Options) (*Table, error)) *Table {
		t.Helper()
		tab, err := f(opts)
		if err != nil {
			t.Fatal(err)
		}
		return tab
	}

	check(run(Figure2), trace.Figure2Names(), []string{"1K cycles", "10K cycles", "100K cycles"}, [][]float64{
		{0.05274351339855381, 0.08209272649936197, 0.08634623564440663},
		{0.046538024971623154, 0.05221339387060159, 0.05221339387060159},
		{0.045454545454545456, 0.05895589558955896, 0.06075607560756076},
		{0.06719924812030076, 0.09257518796992481, 0.10291353383458647},
		{0.054030874785591765, 0.0797598627787307, 0.08190394511149228},
		{0.08824795523030564, 0.113646147223418, 0.113646147223418},
		{0.08600337268128162, 0.12647554806070826, 0.12647554806070826},
		{0.1114406779661017, 0.14872881355932202, 0.14872881355932202},
		{0.04336329984135378, 0.05182443151771549, 0.05182443151771549},
		{0.06985294117647059, 0.09611344537815127, 0.09611344537815127},
	})
	check(run(Figure6Stream),
		[]string{"No contention", "Anl cont (MD1)", "Ev-driven cont", "Cycle-driven cont", "Real (golden)"},
		[]string{"1t", "2t", "3t", "4t", "5t", "6t"}, [][]float64{
			{1, 1.2911392405063291, 1.9211300765155974, 1.7491961414790997, 2.544037412314887, 2.7497893850042123},
			{1, 1.2911392405063291, 1.9211300765155974, 1.7491961414790997, 2.544037412314887, 2.7497893850042123},
			{1, 1.276840490797546, 1.9599764567392584, 1.7731629392971247, 2.5914396887159534, 2.1651495448634592},
			{1, 1.2630158118010026, 1.927604473219541, 1.7448055407565264, 2.4568642160540133, 2.1293888166449935},
			{1, 1.3604166666666666, 1.6325, 1.794942275975811, 2.5527756059421423, 2.494270435446906},
		})
	// Percent cells hold the recorded fractions times 100.
	check(run(IntervalSensitivity), []string{"1K cycles", "10K cycles", "100K cycles"}, []string{"perf error vs 1K"},
		[][]float64{{0}, {0.36210397091458524 * 100}, {0.36210397091458524 * 100}})
	check(run(MeshHotspot), []string{"4t", "8t", "16t"},
		[]string{"zero-load IPC", "NoC-contended IPC", "router queue delay"}, [][]float64{
			{0.2044636429085673, 0.19957835558678846, 3194},
			{0.30547357123691976, 0.2911764705882353, 8995},
			{0.42141209044762346, 0.41187082807144143, 40268},
		})
	check(run(OversubscribedClientServer), []string{"client-server"},
		[]string{"instrs", "cycles", "mid-interval joins", "lock blocks", "syscall blocks"},
		[][]float64{{6329, 38779, 116, 44, 56}})
}
