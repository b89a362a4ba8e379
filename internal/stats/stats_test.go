package stats

import (
	"bytes"
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

// fakeSource is a Source reporting its values as statistics s0, s1, ...
type fakeSource []uint64

func (s fakeSource) VisitStats(f func(name, desc string, v uint64)) {
	for i, v := range s {
		f(fmt.Sprintf("s%d", i), fmt.Sprintf("stat %d", i), v)
	}
}

func TestRegistryWriteText(t *testing.T) {
	root := NewRegistry("sim")
	root.Child("core-0").Record(fakeSource{42, 7})
	root.Child("idle")
	var buf bytes.Buffer
	if err := root.WriteText(&buf); err != nil || buf.String() != "sim:\n  core-0:\n    s0: 42 # stat 0\n    s1: 7 # stat 1\n  idle:\n" {
		t.Fatalf("WriteText = %q, %v", buf.String(), err)
	}
}

// CSV rows are sorted by path.
func TestRegistryWriteCSV(t *testing.T) {
	root := NewRegistry("sim")
	root.Child("b").Record(fakeSource{2})
	root.Child("a").Record(fakeSource{1, 3})
	var buf bytes.Buffer
	if err := root.WriteCSV(&buf); err != nil || buf.String() != "sim.a,s0,1\nsim.a,s1,3\nsim.b,s0,2\n" {
		t.Fatalf("WriteCSV = %q, %v", buf.String(), err)
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
	root.ChildIdx("l2", 7).Record(fakeSource{70})
	root.ChildIdx("l2", 0).Record(fakeSource{5})
	if got := root.ChildIdx("l2", 12).Name(); got != "l2-12" {
		t.Fatalf("Name() = %q, want l2-12", got)
	}
	var csv, text bytes.Buffer
	if err := root.WriteCSV(&csv); err != nil || csv.String() != "sys.l2-0,s0,5\nsys.l2-7,s0,70\n" {
		t.Fatalf("WriteCSV = %q, %v", csv.String(), err)
	}
	if err := root.WriteText(&text); err != nil || text.String() != "sys:\n  l2-7:\n    s0: 70 # stat 0\n  l2-0:\n    s0: 5 # stat 0\n  l2-12:\n" {
		t.Fatalf("WriteText = %q, %v", text.String(), err)
	}
}
