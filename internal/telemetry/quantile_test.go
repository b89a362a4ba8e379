package telemetry

import (
	"math"
	"slices"
	"testing"
)

func TestQuantile(t *testing.T) {
	if got := QuantileSorted(nil, 0.5); got != 0 {
		t.Fatalf("empty quantile = %v", got)
	}
	one := []float64{42}
	for _, q := range []float64{0, 0.5, 1} {
		if got := QuantileSorted(one, q); got != 42 {
			t.Fatalf("single-sample q=%v = %v", q, got)
		}
	}
	samples := slices.Sorted(slices.Values([]float64{5, 1, 4, 2, 3}))
	if got := QuantileSorted(samples, 0.5); got != 3 {
		t.Fatalf("median = %v, want 3", got)
	}
	if got := QuantileSorted(samples, 0); got != 1 {
		t.Fatalf("q0 = %v", got)
	}
	if got := QuantileSorted(samples, 1); got != 5 {
		t.Fatalf("q1 = %v", got)
	}
	// Interpolation: p75 of [1..4] = 3.25 (R-7), and the median of an even
	// count is the mean of the middle two.
	if got := QuantileSorted([]float64{1, 2, 3, 4}, 0.75); math.Abs(got-3.25) > 1e-12 {
		t.Fatalf("p75 = %v, want 3.25", got)
	}
	if got := QuantileSorted([]float64{1, 2, 3, 4}, 0.5); got != 2.5 {
		t.Fatalf("even median = %v, want 2.5", got)
	}
	// Quantiles are monotone in q.
	prev := math.Inf(-1)
	for q := 0.0; q <= 1.0; q += 0.05 {
		v := QuantileSorted(samples, q)
		if v < prev {
			t.Fatalf("quantile not monotone at q=%v: %v < %v", q, v, prev)
		}
		prev = v
	}
}
