package bpred

import (
	"math/rand"
	"testing"
	"testing/quick"

	"zsim/internal/arena"
)

// mispredicts feeds n branches to p and counts the mispredictions.
func mispredicts(p *TwoLevel, n int, branch func(i int) (pc uint64, taken bool)) int {
	miss := 0
	for i := 0; i < n; i++ {
		if !p.PredictAndUpdate(branch(i)) {
			miss++
		}
	}
	return miss
}

func TestCounter2Saturation(t *testing.T) {
	// The zero value decodes to weakly taken (the usual initialization).
	c := counter2(0)
	if c.actual() != 2 || !c.taken() {
		t.Fatalf("zero value should decode to weakly taken, got %d", c.actual())
	}
	for i := 0; i < 10; i++ {
		c = c.update(false)
	}
	if c.actual() != 0 || c.taken() {
		t.Fatalf("counter should saturate at strongly not-taken, got %d", c.actual())
	}
	for i := 0; i < 10; i++ {
		c = c.update(true)
	}
	if c.actual() != 3 || !c.taken() {
		t.Fatalf("counter should saturate at strongly taken, got %d", c.actual())
	}
}

func TestTwoLevelLearnsPattern(t *testing.T) {
	// A branch alternating T,N,T,N defeats a PC-indexed counter (~50%
	// mispredicted) but is learned almost perfectly through the history.
	miss := mispredicts(New(nil), 4000, func(i int) (uint64, bool) { return 0x4000, i%2 == 0 })
	if rate := float64(miss) / 4000; rate > 0.05 {
		t.Fatalf("two-level should learn an alternating pattern, rate=%f", rate)
	}
}

func TestTwoLevelBiasedBranches(t *testing.T) {
	// 95%-taken branches should be predicted well.
	rng := rand.New(rand.NewSource(1))
	miss := mispredicts(New(nil), 20000, func(i int) (uint64, bool) {
		return uint64(0x1000 + (i%16)*4), rng.Float64() < 0.95
	})
	if rate := float64(miss) / 20000; rate > 0.15 {
		t.Fatalf("biased branches should have low mispredict rate, got %f", rate)
	}
}

// The geometry is fixed: every predictor, heap- or arena-backed, has one
// counter per table entry, and Reset restores the fresh state.
func TestTwoLevelConfigBounds(t *testing.T) {
	if entries&(entries-1) != 0 {
		t.Fatalf("entries = %d must be a power of two (it is indexed by mask)", entries)
	}
	a := arena.New()
	for _, p := range []*TwoLevel{New(nil), New(a)} {
		if len(p.table) != entries {
			t.Fatalf("table has %d entries, want %d", len(p.table), entries)
		}
		mispredicts(p, 100, func(i int) (uint64, bool) { return uint64(i * 4), i%3 == 0 })
		p.Reset()
		if p.history != 0 {
			t.Fatalf("Reset left history %#x", p.history)
		}
		for i, c := range p.table {
			if c != 0 {
				t.Fatalf("Reset left counter %d = %d", i, c)
			}
		}
	}
}

// Property: the history register never exceeds histBits bits.
func TestTwoLevelHistoryBounded(t *testing.T) {
	g := New(nil)
	f := func(pcs []uint32, outcomes []bool) bool {
		n := min(len(pcs), len(outcomes))
		for i := 0; i < n; i++ {
			g.PredictAndUpdate(uint64(pcs[i]), outcomes[i])
			if g.history >= 1<<histBits {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: a perfectly biased branch stream (always taken) converges to at
// most a handful of mispredictions.
func TestConstantStreamConverges(t *testing.T) {
	if miss := mispredicts(New(nil), 1000, func(int) (uint64, bool) { return 0xabcd, true }); miss > 5 {
		t.Fatalf("too many mispredictions on a constant stream: %d", miss)
	}
}
