package bpred

import (
	"math/rand"
	"testing"
	"testing/quick"
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
	miss := mispredicts(new(TwoLevel), 4000, func(i int) (uint64, bool) { return 0x4000, i%2 == 0 })
	if rate := float64(miss) / 4000; rate > 0.05 {
		t.Fatalf("two-level should learn an alternating pattern, rate=%f", rate)
	}
}

func TestTwoLevelBiasedBranches(t *testing.T) {
	// 95%-taken branches should be predicted well.
	rng := rand.New(rand.NewSource(1))
	miss := mispredicts(new(TwoLevel), 20000, func(i int) (uint64, bool) {
		return uint64(0x1000 + (i%16)*4), rng.Float64() < 0.95
	})
	if rate := float64(miss) / 20000; rate > 0.15 {
		t.Fatalf("biased branches should have low mispredict rate, got %f", rate)
	}
}

// The geometry is fixed: a predictor has no table until its first
// prediction, then packs its 16,384 counters four to a byte, and Reset
// restores the fresh state.
func TestTwoLevelConfigBounds(t *testing.T) {
	if entries != 16384 || entries&(entries-1) != 0 {
		t.Fatalf("entries = %d, want 16384 (a power of two: it is indexed by mask)", entries)
	}
	p := new(TwoLevel)
	if p.table != nil {
		t.Fatalf("a new predictor holds a %d-byte table before its first branch", len(p.table))
	}
	p.Reset()
	if p.table != nil {
		t.Fatal("Reset of an unused predictor built a table")
	}
	p.PredictAndUpdate(0x400, true)
	if len(p.table)*4 != entries {
		t.Fatalf("table has %d bytes holding %d counters, want %d", len(p.table), len(p.table)*4, entries)
	}
	mispredicts(p, 100, func(i int) (uint64, bool) { return uint64(i * 4), i%3 == 0 })
	p.Reset()
	if p.history != 0 {
		t.Fatalf("Reset left history %#x", p.history)
	}
	for i, b := range p.table {
		if b != 0 {
			t.Fatalf("Reset left table byte %d = %#x", i, b)
		}
	}
}

// The packed table behaves exactly like one byte per counter: a reference
// predictor with an unpacked []counter2 table, fed the same random stream,
// makes the same prediction on every branch, and the packed counters decode
// to the reference's.
func TestTwoLevelPackedMatchesUnpacked(t *testing.T) {
	ref := make([]counter2, entries)
	var refHist uint64
	p := new(TwoLevel)
	rng := rand.New(rand.NewSource(7))
	for n := 0; n < 200000; n++ {
		pc, taken := uint64(rng.Intn(1<<16))*4, rng.Intn(3) != 0
		i := ((pc >> 2) ^ refHist) & (entries - 1)
		want := ref[i].taken() == taken
		ref[i] = ref[i].update(taken)
		refHist <<= 1
		if taken {
			refHist |= 1
		}
		refHist &= 1<<histBits - 1
		if got := p.PredictAndUpdate(pc, taken); got != want {
			t.Fatalf("branch %d (pc %#x): packed predictor said %v, reference %v", n, pc, got, want)
		}
	}
	for i, c := range ref {
		if got := counter2(p.table[i/4]>>(2*(i%4))) & 3; got != c {
			t.Fatalf("counter %d = %d, reference %d", i, got, c)
		}
	}
}

// Property: the history register never exceeds histBits bits.
func TestTwoLevelHistoryBounded(t *testing.T) {
	g := new(TwoLevel)
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
	if miss := mispredicts(new(TwoLevel), 1000, func(int) (uint64, bool) { return 0xabcd, true }); miss > 5 {
		t.Fatalf("too many mispredictions on a constant stream: %d", miss)
	}
}
