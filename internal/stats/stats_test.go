package stats

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestCounterBasics(t *testing.T) {
	r := NewRegistry("core-0")
	c := r.Counter("instrs", "instructions executed")
	if c.Get() != 0 {
		t.Fatalf("new counter should be zero, got %d", c.Get())
	}
	c.Inc()
	c.Add(9)
	if c.Get() != 10 {
		t.Fatalf("expected 10, got %d", c.Get())
	}
	c.Set(5)
	if c.Get() != 5 {
		t.Fatalf("expected 5 after Set, got %d", c.Get())
	}
}

func TestRegistryWriteText(t *testing.T) {
	root := NewRegistry("sim")
	c := root.Child("core-0")
	c.Counter("instrs", "instructions").Add(42)
	c.Atomic("hits", "hits").v.Add(7)
	var buf bytes.Buffer
	if err := root.WriteText(&buf); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	out := buf.String()
	for _, want := range []string{"sim:", "core-0:", "instrs: 42", "hits: 7"} {
		if !strings.Contains(out, want) {
			t.Fatalf("text output missing %q:\n%s", want, out)
		}
	}
}

func TestRegistryWriteCSV(t *testing.T) {
	root := NewRegistry("sim")
	root.Child("b").Counter("x", "").Add(2)
	root.Child("a").Counter("x", "").Add(1)
	var buf bytes.Buffer
	if err := root.WriteCSV(&buf); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("expected 2 rows, got %d: %v", len(lines), lines)
	}
	// Rows are sorted by path.
	if !strings.HasPrefix(lines[0], "sim.a,") || !strings.HasPrefix(lines[1], "sim.b,") {
		t.Fatalf("rows not sorted: %v", lines)
	}
}

func TestMetricsFinalize(t *testing.T) {
	m := &Metrics{
		Workload:  "w",
		Model:     "ooo",
		Instrs:    2000,
		Uops:      2400,
		Cycles:    1000,
		L1DMisses: 20,
		L3Misses:  2,
		HostNanos: 1e9,
	}
	m.Finalize()
	if math.Abs(m.IPC-2.0) > 1e-9 {
		t.Fatalf("IPC: expected 2.0, got %f", m.IPC)
	}
	if math.Abs(m.UPC-2.4) > 1e-9 {
		t.Fatalf("UPC: expected 2.4, got %f", m.UPC)
	}
	if math.Abs(m.L1DMPKI-10.0) > 1e-9 {
		t.Fatalf("L1D MPKI: expected 10, got %f", m.L1DMPKI)
	}
	if math.Abs(m.L3MPKI-1.0) > 1e-9 {
		t.Fatalf("L3 MPKI: expected 1, got %f", m.L3MPKI)
	}
	if math.Abs(m.SimMIPS-0.002) > 1e-9 {
		t.Fatalf("SimMIPS: expected 0.002, got %f", m.SimMIPS)
	}
}

func TestMetricsFinalizeZeroSafe(t *testing.T) {
	m := &Metrics{}
	m.Finalize()
	if m.IPC != 0 || m.L1DMPKI != 0 || m.SimMIPS != 0 {
		t.Fatalf("zero metrics should remain zero: %+v", m)
	}
}

func TestPerfError(t *testing.T) {
	ref := &Metrics{Cycles: 1000}
	fast := &Metrics{Cycles: 800} // finishes sooner -> higher perf
	slow := &Metrics{Cycles: 1250}
	if e := fast.PerfError(ref); math.Abs(e-0.25) > 1e-9 {
		t.Fatalf("expected +0.25, got %f", e)
	}
	if e := slow.PerfError(ref); math.Abs(e-(-0.2)) > 1e-9 {
		t.Fatalf("expected -0.2, got %f", e)
	}
	zero := &Metrics{}
	if e := zero.PerfError(ref); e != 0 {
		t.Fatalf("zero-cycle metrics should yield 0 error, got %f", e)
	}
}

func TestMPKIError(t *testing.T) {
	a := &Metrics{L1IMPKI: 1, L1DMPKI: 5, L2MPKI: 2, L3MPKI: 0.5, BranchMPKI: 3}
	b := &Metrics{L1IMPKI: 2, L1DMPKI: 4, L2MPKI: 2, L3MPKI: 1.0, BranchMPKI: 1}
	if e := a.MPKIError(b, "l1i"); math.Abs(e+1) > 1e-9 {
		t.Fatalf("l1i error: expected -1, got %f", e)
	}
	if e := a.MPKIError(b, "l1d"); math.Abs(e-1) > 1e-9 {
		t.Fatalf("l1d error: expected 1, got %f", e)
	}
	if e := a.MPKIError(b, "branch"); math.Abs(e-2) > 1e-9 {
		t.Fatalf("branch error: expected 2, got %f", e)
	}
	if e := a.MPKIError(b, "bogus"); e != 0 {
		t.Fatalf("unknown level should give 0, got %f", e)
	}
}

func TestHMean(t *testing.T) {
	if got := HMean([]float64{2, 2, 2}); math.Abs(got-2) > 1e-9 {
		t.Fatalf("hmean of equal values should equal them, got %f", got)
	}
	got := HMean([]float64{1, 4})
	if math.Abs(got-1.6) > 1e-9 {
		t.Fatalf("hmean(1,4) should be 1.6, got %f", got)
	}
	if got := HMean(nil); got != 0 {
		t.Fatalf("hmean of empty should be 0, got %f", got)
	}
	if got := HMean([]float64{0, -1}); got != 0 {
		t.Fatalf("hmean of non-positive values should be 0, got %f", got)
	}
}

func TestMeanAndMeanAbs(t *testing.T) {
	if got := MeanAbs([]float64{-1, 1, -4}); math.Abs(got-2) > 1e-9 {
		t.Fatalf("meanabs: %f", got)
	}
	if got := MeanAbs(nil); got != 0 {
		t.Fatalf("meanabs of empty: %f", got)
	}
}

// Property: the harmonic mean is never larger than the arithmetic mean for
// positive inputs, and both lie within [min, max].
func TestHMeanPropertyAMGMHM(t *testing.T) {
	f := func(raw []uint16) bool {
		var vals []float64
		for _, r := range raw {
			vals = append(vals, float64(r%1000)+1) // positive, bounded
		}
		if len(vals) == 0 {
			return true
		}
		hm := HMean(vals)
		var am float64
		min, max := vals[0], vals[0]
		for _, v := range vals {
			am += v / float64(len(vals))
			if v < min {
				min = v
			}
			if v > max {
				max = v
			}
		}
		return hm <= am+1e-9 && hm >= min-1e-9 && am <= max+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Indexed children (ChildIdx) carry no formatted name; both exporters must
// format it lazily as "<prefix>-<idx>".
func TestIndexedChildNames(t *testing.T) {
	root := NewRegistryIn("sys", nil)
	root.ChildIdx("l2", 7).Counter("hits", "h").Add(70)
	root.ChildIdx("l2", 0).Atomic("misses", "m").v.Add(5)
	if got := root.ChildIdx("l2", 12).Name(); got != "l2-12" {
		t.Fatalf("Name() = %q, want l2-12", got)
	}
	var csv bytes.Buffer
	if err := root.WriteCSV(&csv); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	if got, want := csv.String(), "sys.l2-0,misses,5\nsys.l2-7,hits,70\n"; got != want {
		t.Fatalf("CSV:\n%s\nwant:\n%s", got, want)
	}
	var text bytes.Buffer
	if err := root.WriteText(&text); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	for _, want := range []string{"  l2-7:\n    hits: 70 # h\n", "  l2-0:\n    misses: 5 # m\n", "  l2-12:\n"} {
		if !strings.Contains(text.String(), want) {
			t.Fatalf("text output missing %q:\n%s", want, text.String())
		}
	}
}

// Reset zeroes plain and atomic counters in the whole subtree and keeps the
// tree's shape and names.
func TestRegistryReset(t *testing.T) {
	root := NewRegistry("sim")
	c := root.Counter("cycles", "")
	a := root.ChildIdx("bank", 3).Atomic("hits", "")
	c.Add(9)
	a.v.Add(4)
	root.Reset()
	if c.Get() != 0 || a.Get() != 0 {
		t.Fatalf("Reset left %d, %d", c.Get(), a.Get())
	}
	var csv bytes.Buffer
	if err := root.WriteCSV(&csv); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	if got, want := csv.String(), "sim,cycles,0\nsim.bank-3,hits,0\n"; got != want {
		t.Fatalf("after Reset:\n%s\nwant:\n%s", got, want)
	}
}
