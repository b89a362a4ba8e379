package main

import (
	"bytes"
	"encoding/json"
	"math"
	"path/filepath"
	"reflect"
	"regexp"
	"testing"
)

func TestQuartilesMatchPythonQuantiles(t *testing.T) {
	// statistics.quantiles(v, n=4) for each input.
	cases := []struct {
		in         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 1, 7, 3}, 1.5, 5, 9.25},
		{[]float64{2, 4}, 1.5, 3, 4.5},
		{[]float64{5, 1, 3}, 1, 3, 5},
		{[]float64{4}, 4, 4, 4},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.in)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.in, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median = %v, want 2", m)
	}
	if s := spread(90, 100, 105); math.Abs(s-0.15) > 1e-12 {
		t.Errorf("spread = %v, want 0.15", s)
	}
}

func TestPercentileAndSamplesBeyond(t *testing.T) {
	v := make([]float64, 3000)
	for i := range v {
		v[i] = float64(len(v) - i) // descending: percentile must sort
	}
	p95, beyond := percentile(v, 95)
	if p95 != 2850 || beyond != 150 {
		t.Errorf("p95 of 1..3000 = %v with %d beyond, want 2850 with 150", p95, beyond)
	}
	if beyond < minBeyond {
		t.Errorf("3000 samples must resolve p95")
	}
	// 20 reps: p95 is the 19th value and one sample lies beyond it, so it is
	// reported as unresolved; the median (10 beyond) is the highest that is.
	p95, beyond = percentile(v[:20], 95)
	if p95 != 2999 || beyond != 1 {
		t.Errorf("p95 of 20 = %v with %d beyond, want 2999 with 1", p95, beyond)
	}
	if _, beyond = percentile(v[:20], 50); beyond != minBeyond {
		t.Errorf("p50 of 20 has %d beyond, want %d", beyond, minBeyond)
	}
	if p, b := percentile(nil, 95); p != 0 || b != 0 {
		t.Errorf("percentile of nothing = %v, %d", p, b)
	}
	// resolved falls back from p95 to the highest percentile with ten beyond.
	if p, used := resolved(v, 95); p != 2850 || used != 95 {
		t.Errorf("resolved p95 of 3000 = %v (p%v)", p, used)
	}
	if p, used := resolved(v[:40], 95); p != 2990 || used != 75 {
		t.Errorf("resolved p95 of 40 = %v (p%v), want the 30th of 40 (p75)", p, used)
	}
	if p, used := resolved(v[:12], 95); p != 2994 || used != 50 {
		t.Errorf("resolved p95 of 12 = %v (p%v), want the median", p, used)
	}
}

func TestSeedFixesZsimdJobSequence(t *testing.T) {
	a, b, other := jobSequence(7, 3000), jobSequence(7, 3000), jobSequence(8, 3000)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave two job sequences")
	}
	if reflect.DeepEqual(a, other) {
		t.Fatal("seeds 7 and 8 gave the same job sequence")
	}
	hot, lastCold := 0, jobKind(-1)
	for _, k := range a {
		switch {
		case k == hotJob:
			hot++
		case k == lastCold:
			t.Fatalf("two consecutive cold jobs share shape %d", k)
		default:
			lastCold = k
		}
	}
	if frac := float64(hot) / float64(len(a)); math.Abs(frac-zsimdHotFrac) > 0.03 {
		t.Errorf("hot fraction %.3f, want about %.2f", frac, zsimdHotFrac)
	}
	// Job i's request is a pure function of the sequence entry, the seed and i,
	// and no two jobs or campaign points of seeds 7 and 8 share a job seed.
	if !reflect.DeepEqual(jobRequest(a[5], 7, 5), jobRequest(b[5], 7, 5)) {
		t.Error("same seed and job index gave two requests")
	}
	if jobRequest(a[5], 7, 5).Seed == jobRequest(a[5], 8, 5).Seed || jobRequest(a[5], 7, maxSeqJobs).Seed >= jobRequest(a[0], 8, 0).Seed {
		t.Error("seeds 7 and 8 share job seeds")
	}
	shapes := map[[2]any]bool{{1, "ipc1"}: true, {fillerRequest().Tiles, "ipc1"}: true}
	for k := 0; k < zsimdColdShapes; k++ {
		r := jobRequest(jobKind(k), 7, k)
		key := [2]any{r.Tiles, r.CoreModel}
		if shapes[key] {
			t.Errorf("cold shape %d (%v) repeats another shape", k, key)
		}
		shapes[key] = true
	}
}

func TestSeedFixesWorkloadParams(t *testing.T) {
	for _, w := range simWorkloads() {
		a, b, other := w.procs(3), w.procs(3), w.procs(4)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: same seed gave two sets of processes", w.name)
		}
		if reflect.DeepEqual(a, other) {
			t.Errorf("%s: seeds 3 and 4 gave the same processes", w.name)
		}
		seeds := map[uint64]bool{}
		for i, p := range a {
			if seeds[p.streamSeed] {
				t.Errorf("%s: two processes share stream seed %d", w.name, p.streamSeed)
			}
			seeds[p.streamSeed] = true
			if p.params != other[i].params {
				t.Errorf("%s: the seed changed process %d's program, not only its streams", w.name, i)
			}
		}
	}
	// The two hotspot64 variants run identical inputs.
	if !reflect.DeepEqual(hotspot64().procs(5), hotspot64Serial().procs(5)) {
		t.Error("hotspot64 and hotspot64-serial differ in their processes")
	}
}

// TestStreamSeedMovesStreamsNotCode pins what newProgram relies on: the
// static code comes from the program's own seed, the dynamic stream from the
// stream seed set afterwards.
func TestStreamSeedMovesStreamsNotCode(t *testing.T) {
	stream := func(seed uint64) (ids []uint64, static int) {
		p := hotspotProcs(seed)[0]
		p.threads = 1
		w := newProgram(nil, p)
		th := w.NewThread(0)
		for i := 0; i < 64; i++ {
			ids = append(ids, th.NextBlock().Decoded.ID)
		}
		return ids, w.NumStaticBlocks()
	}
	a, na := stream(1)
	b, _ := stream(1)
	c, nc := stream(2)
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed gave two block streams")
	}
	if reflect.DeepEqual(a, c) {
		t.Error("seeds 1 and 2 gave the same block stream")
	}
	if na != nc {
		t.Errorf("static code changed with the stream seed: %d vs %d blocks", na, nc)
	}
}

func TestResultFileRoundTrip(t *testing.T) {
	sig := signature{Instrs: 1, Cycles: 2, L1DMisses: 3, L2Misses: 4, L3Misses: 5, WeaveEvents: 6, NoCTraversals: 7, ContextSwitches: 8}
	in := &resultFile{
		Commit: "abc", Seed: 9, NProc: 2, GOMAXPROCS: 2, GoVersion: "go1.24", Seconds: 12,
		Workloads: []workloadResult{{
			Name: "westmere-ooo", Why: "w", RepSize: map[string]int{"namd.threads": 1},
			Attempted: 20, Failed: 0,
			EndToEnd:  []metric{newMetric("sim_mips", []float64{3, 4, 5}), single("jobs_per_s", 2.5, 20)},
			PerLayer:  []metric{single("core.sim_ipc", 0.4, 3)},
			Signature: &sig,
			Notes:     []string{"n"},
		}},
	}
	path := filepath.Join(t.TempDir(), "r.json")
	if err := writeResultFile(path, in); err != nil {
		t.Fatal(err)
	}
	out, err := readResultFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Errorf("round trip changed the result:\n in %+v\nout %+v", in, out)
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// TestCatalogMatchesBenchmarkJSON keeps the names this package prints and the
// names BENCHMARK.json declares the same, in the same order, with the same
// units, and inside the contract's limits.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	spec, err := loadSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if spec.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, defaultSeconds %d", spec.RunSeconds, defaultSeconds)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Errorf("workloads %v, want %v", names, workloadNames())
	}
	seen := map[string]bool{}
	check := func(kind string, defs []metricDef, got []specMetric) {
		if len(defs) != len(got) {
			t.Fatalf("%s: catalog has %d metrics, BENCHMARK.json %d", kind, len(defs), len(got))
		}
		for i, d := range defs {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s[%d]: catalog %s (%s), BENCHMARK.json %s (%s)", kind, i, d.name, d.unit, got[i].Name, got[i].Unit)
			}
			if !nameRE.MatchString(d.name) || !unitRE.MatchString(d.unit) {
				t.Errorf("%s: name %q or unit %q outside the contract's alphabet", kind, d.name, d.unit)
			}
			if seen[d.name] {
				t.Errorf("%s: %s is used twice", kind, d.name)
			}
			seen[d.name] = true
			if got[i].Better != "higher" && got[i].Better != "lower" {
				t.Errorf("%s: %s better=%q", kind, d.name, got[i].Better)
			}
		}
	}
	check("end_to_end", endToEndDefs, spec.EndToEnd)
	check("per_layer", perLayerDefs, spec.PerLayer)
	setupLargest := true
	for _, m := range spec.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name != "setup_s" && m.Bound > spec.EndToEnd[1].Bound {
			setupLargest = false
		}
	}
	if spec.EndToEnd[1].Name != "setup_s" || !setupLargest {
		t.Error("setup_s must carry the largest bound")
	}
	for _, k := range layerKernels() {
		if !seen[k.name] {
			t.Errorf("layer kernel %s is not in the catalog", k.name)
		}
	}
}

// TestDriverLine pins the driver's result line: exactly the contract's keys,
// and every catalog metric of the pass, whether the workload defines it,
// carries it as padding, or (per-layer only) does not have it.
func TestDriverLine(t *testing.T) {
	w := &workloadResult{Name: "hotspot64", Attempted: 10, Failed: 1, PerLayer: []metric{single("core.sim_ipc", 0.4, 3)}}
	w.setEndToEnd([]metric{single("sim_mips", 1.25, 10), single("jobs_per_s", 2.5, 10)})
	if len(w.EndToEnd) != 1 || w.EndToEnd[0].Name != "sim_mips" || len(w.padding) != 1 {
		t.Fatalf("hotspot64 defines sim_mips and not jobs_per_s: got %v and padding %v", w.EndToEnd, w.padding)
	}
	type values map[string]struct {
		Value float64
		Unit  string
	}
	parse := func(traced bool) values {
		line, err := driverLine(w, traced)
		if err != nil {
			t.Fatal(err)
		}
		var got map[string]json.RawMessage
		if err := json.Unmarshal([]byte(line), &got); err != nil {
			t.Fatal(err)
		}
		for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
			if _, ok := got[k]; !ok {
				t.Errorf("key %q missing from %s", k, line)
			}
		}
		if len(got) != 4 || string(got["correct"]) != "false" || string(got["attempted"]) != "10" || string(got["failed"]) != "1" {
			t.Errorf("unexpected line %s", line)
		}
		var ms values
		if err := json.Unmarshal(got["metrics"], &ms); err != nil {
			t.Fatal(err)
		}
		return ms
	}
	ms := parse(false)
	if len(ms) != len(endToEndDefs) || ms["sim_mips"].Value != 1.25 || ms["sim_mips"].Unit != "MIPS" || ms["jobs_per_s"].Value != 2.5 {
		t.Errorf("end-to-end metrics %v", ms)
	}
	ms = parse(true)
	if len(ms) != len(perLayerDefs) || ms["core.sim_ipc"].Value != 0.4 || ms["serve.submit_ms_p50"].Unit != "ms" {
		t.Errorf("per-layer metrics %v", ms)
	}
}

// TestDefinedOn pins the pairings of workload and end-to-end metric that are
// reported and compared: 26 of the 54.
func TestDefinedOn(t *testing.T) {
	n := 0
	for _, w := range workloadNames() {
		for _, d := range endToEndDefs {
			if definedOn(d.name, w) {
				n++
			}
		}
		if !definedOn("setup_s", w) {
			t.Errorf("setup_s is defined on every workload, %s too", w)
		}
	}
	if n != 26 {
		t.Errorf("%d defined pairings, want 26", n)
	}
	if definedOn("sim_mips", zsimdMixName) || !definedOn("jobs_per_s", zsimdMixName) || definedOn("golden_err_pct", "tiled1024") || !definedOn("golden_err_pct", "westmere-ooo") {
		t.Error("definedOn disagrees with the README's metric table")
	}
}

func TestPerSecond(t *testing.T) {
	jobs := []jobSample{
		{ok: true, doneS: 0.2, latencyMS: 1}, {ok: true, doneS: 0.9, latencyMS: 3},
		{ok: false, doneS: 1.1, latencyMS: 9}, {ok: true, doneS: 1.5, latencyMS: 2},
		{ok: true, doneS: 2.1, latencyMS: 5}, // in the cut-off part of a 2.4 s phase
	}
	rates, p50s, p95s := perSecond(jobs, 2.4)
	if !reflect.DeepEqual(rates, []float64{2, 1}) || !reflect.DeepEqual(p50s, []float64{2, 2}) || !reflect.DeepEqual(p95s, []float64{3, 2}) {
		t.Errorf("perSecond = %v, %v, %v", rates, p50s, p95s)
	}
	m := overParts("jobs_per_s", 1.6, 4, rates)
	if m.Value != 1.6 || m.N != 4 || m.Q1 >= m.Q3 {
		t.Errorf("overParts = %+v", m)
	}
}

func TestJudge(t *testing.T) {
	higher := specMetric{Name: "sim_mips", Better: "higher", Bound: 0.10}
	lower := specMetric{Name: "setup_s", Better: "lower", Bound: 0.15}
	tight := func(v float64) metric { return metric{Value: v, Q1: v * 0.99, Q3: v * 1.01, N: 20} }
	wide := func(v float64) metric { return metric{Value: v, Q1: v * 0.9, Q3: v * 1.1, N: 20} }
	cases := []struct {
		a, b metric
		m    specMetric
		want string
	}{
		{tight(100), tight(95), higher, verdictOK},
		{tight(100), tight(85), higher, verdictRegressed},
		{tight(100), tight(130), higher, verdictOK},
		{tight(1), tight(1.1), lower, verdictOK},
		{tight(1), tight(1.2), lower, verdictRegressed},
		{tight(1), tight(0.5), lower, verdictOK},
		// Noise wider than the bound: a move inside the noise cannot be told
		// from it, nor can "no regression" be claimed ...
		{wide(100), tight(85), higher, verdictUnresolved},
		{tight(100), wide(99), higher, verdictUnresolved},
		// ... but a move beyond both the bound and the noise is a regression
		// however noisy the metric (setup_s with its 130% spread, 3x slower).
		{wide(100), tight(70), higher, verdictRegressed},
		{metric{Value: 1, Q1: 0.8, Q3: 2.1}, metric{Value: 3, Q1: 2.5, Q3: 6}, lower, verdictRegressed},
		{metric{Value: 1, Q1: 0.8, Q3: 2.1}, metric{Value: 2, Q1: 1.6, Q3: 4}, lower, verdictUnresolved},
		// A whole-window rate carries its per-second spread, so one noisy
		// sample a side no longer yields a verdict.
		{overParts("jobs_per_s", 1000, 7000, []float64{800, 900, 1000, 1100, 1200}), overParts("jobs_per_s", 880, 6000, []float64{870, 880, 890}), higher, verdictUnresolved},
	}
	for _, c := range cases {
		if _, got := judge(c.a, c.b, c.m); got != c.want {
			t.Errorf("judge(%v -> %v, %s) = %s, want %s", c.a.Value, c.b.Value, c.m.Name, got, c.want)
		}
	}
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	spec := filepath.Join("..", "BENCHMARK.json")
	write := func(name string, mips float64, procs int, sig signature) string {
		r := &resultFile{Commit: name, Seed: 1, NProc: 2, GOMAXPROCS: procs, Workloads: []workloadResult{{
			Name: "westmere-ooo", Attempted: 20,
			EndToEnd:  []metric{{Name: "sim_mips", Unit: "MIPS", Value: mips, Q1: mips * 0.99, Q3: mips * 1.01, N: 20}},
			Signature: &sig,
		}}}
		path := filepath.Join(dir, name+".json")
		if err := writeResultFile(path, r); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("base", 4.0, 2, signature{Instrs: 10})
	var out bytes.Buffer
	if code := compareFiles(&out, spec, base, write("same", 3.9, 2, signature{Instrs: 10})); code != 0 {
		t.Errorf("within the bound: exit %d\n%s", code, out.String())
	}
	if !bytes.Contains(out.Bytes(), []byte("signature: bit-equal")) || !bytes.Contains(out.Bytes(), []byte("ok")) {
		t.Errorf("report lacks the verdict or the signature line:\n%s", out.String())
	}
	out.Reset()
	if code := compareFiles(&out, spec, base, write("slow", 2.4, 2, signature{Instrs: 10})); code != 1 {
		t.Errorf("40%% slower: exit %d\n%s", code, out.String())
	}
	if code := compareFiles(&out, spec, base, write("sig", 4.0, 2, signature{Instrs: 11})); code != 1 {
		t.Errorf("changed signature: exit %d", code)
	}
	if code := compareFiles(&out, spec, base, write("one", 4.0, 1, signature{Instrs: 10})); code != 2 {
		t.Errorf("different GOMAXPROCS: exit %d, want 2 (refused)", code)
	}
}
