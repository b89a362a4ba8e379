package memctrl

import (
	"testing"
	"testing/quick"

	"zsim/internal/cache"
	"zsim/internal/stats"
)

func TestSimpleController(t *testing.T) {
	s := NewSimple(100, 120, stats.NewRegistry("mem0"))
	done := s.Access(&cache.Request{LineAddr: 1, Cycle: 50})
	if done != 170 {
		t.Fatalf("fixed latency wrong: %d", done)
	}
	s.Access(&cache.Request{LineAddr: 2, Cycle: 60, Write: true})
	if s.Reads() != 1 || s.Writes() != 1 {
		t.Fatalf("counters wrong: %d/%d", s.Reads(), s.Writes())
	}
	// Hop recording.
	req := &cache.Request{LineAddr: 3, Cycle: 10, RecordHops: true}
	s.Access(req)
	if len(req.Hops) != 1 || req.Hops[0].Kind != cache.HopMem || req.Hops[0].Comp != 100 {
		t.Fatalf("hop recording wrong: %+v", req.Hops)
	}
	// Nil registry is allowed.
	s2 := NewSimple(1, 10, nil)
	if s2.Access(&cache.Request{Cycle: 0}) != 10 {
		t.Fatalf("nil-registry controller broken")
	}
}

func TestMD1LowLoadNearZeroLoad(t *testing.T) {
	m := NewMD1(1, 100, 8, nil)
	// Sparse accesses: utilization ~0, latency ~zero-load.
	var cycle uint64
	var last uint64
	for i := 0; i < 200; i++ {
		last = m.Access(&cache.Request{LineAddr: uint64(i), Cycle: cycle}) - cycle
		cycle += 10000
	}
	if last > 105 {
		t.Fatalf("low-load M/D/1 latency should be near zero-load, got %d", last)
	}
	if m.Utilization() > 0.01 {
		t.Fatalf("low-load utilization should be ~0, got %f", m.Utilization())
	}
}

func TestMD1HighLoadAddsQueueing(t *testing.T) {
	m := NewMD1(1, 100, 8, nil)
	// Dense accesses: inter-arrival close to the service time -> queuing.
	var cycle uint64
	var lat uint64
	for i := 0; i < 500; i++ {
		lat = m.Access(&cache.Request{LineAddr: uint64(i), Cycle: cycle}) - cycle
		cycle += 9 // just above service time of 8 => rho ~0.89
	}
	if lat <= 110 {
		t.Fatalf("high-load M/D/1 latency should include queueing, got %d", lat)
	}
	if m.Utilization() < 0.5 {
		t.Fatalf("utilization should be high, got %f", m.Utilization())
	}
	// Saturation clamp: arrivals faster than the service rate.
	m2 := NewMD1(2, 100, 8, nil)
	cycle = 0
	for i := 0; i < 500; i++ {
		m2.Access(&cache.Request{LineAddr: uint64(i), Cycle: cycle})
		cycle += 2
	}
	if m2.satEvent.Get() == 0 {
		t.Fatalf("over-saturated controller should clamp utilization")
	}
	m2.Reset()
	if m2.Utilization() != 0 {
		t.Fatalf("reset should clear the arrival window")
	}
	if m2.Reads() == 0 {
		t.Fatalf("reads counter should persist across Reset")
	}
	_ = m2.Writes()
}

func TestDDR3UncontendedLatency(t *testing.T) {
	d := NewDDR3("mem", DefaultDDR3Timing())
	lat := d.RequestLatency(1, 0, false)
	// Zero-load latency = (tRCD + tCAS + tBurst) * ratio = (9+9+4)*3 = 66.
	if lat != 66 {
		t.Fatalf("uncontended DDR3 latency should be 66 CPU cycles, got %d", lat)
	}
	// A request to a different bank far in the future is also uncontended.
	lat = d.RequestLatency(2, 100000, false)
	if lat < 66 || lat > 66+3*DefaultDDR3Timing().TXP {
		t.Fatalf("far-future request should be near zero-load (powerdown exit allowed), got %d", lat)
	}
}

func TestDDR3BankConflictSerializes(t *testing.T) {
	d := NewDDR3("mem", DefaultDDR3Timing())
	// Two back-to-back requests to the same line hit the same bank: the
	// second must wait for the first's precharge.
	l1 := d.RequestLatency(42, 0, false)
	l2 := d.RequestLatency(42, 0, false)
	if l2 <= l1 {
		t.Fatalf("same-bank conflict should increase latency: %d then %d", l1, l2)
	}
	if d.RowConflicts == 0 {
		t.Fatalf("row conflict should be counted")
	}
}

func TestDDR3SaturationUnderLoad(t *testing.T) {
	// Issue a dense burst of requests; average latency must grow well beyond
	// zero-load (queueing), and the controller should eventually throttle to
	// its bandwidth.
	d := NewDDR3("mem", DefaultDDR3Timing())
	var total uint64
	n := 500
	for i := 0; i < n; i++ {
		total += d.RequestLatency(uint64(i*64), uint64(i), false)
	}
	avg := total / uint64(n)
	if avg < 150 {
		t.Fatalf("saturated DDR3 average latency should far exceed zero-load, got %d", avg)
	}
	if d.AverageWaitCPU() <= 0 {
		t.Fatalf("queueing wait should be positive under saturation")
	}
	d.Reset()
	if d.TotalRequests != 0 || d.AverageWaitCPU() != 0 {
		t.Fatalf("reset should clear stats")
	}
}

func TestDDR3WritesOccupyLonger(t *testing.T) {
	dr := NewDDR3("r", DefaultDDR3Timing())
	dw := NewDDR3("w", DefaultDDR3Timing())
	// Same-bank back-to-back: the second access pays for the first's
	// occupancy, which is longer for writes (tWR).
	dr.RequestLatency(1, 0, false)
	secondAfterRead := dr.RequestLatency(1, 0, false)
	dw.RequestLatency(1, 0, true)
	secondAfterWrite := dw.RequestLatency(1, 0, false)
	if secondAfterWrite <= secondAfterRead {
		t.Fatalf("write recovery should delay the next same-bank access: %d vs %d", secondAfterWrite, secondAfterRead)
	}
}

func TestCycleDrivenMatchesEventDrivenShape(t *testing.T) {
	timing := DefaultDDR3Timing()
	ev := NewDDR3("ev", timing)
	cd := NewCycleDriven(timing)
	// Uncontended latency matches exactly.
	le := ev.RequestLatency(7, 0, false)
	lc := cd.RequestLatency(7, 0, false)
	if le != lc {
		t.Fatalf("uncontended latencies should match: %d vs %d", le, lc)
	}
	// Under load, both should show large queueing latencies of similar
	// magnitude (within 2x of each other).
	ev.Reset()
	cd.Reset()
	var se, sc uint64
	for i := 0; i < 300; i++ {
		se += ev.RequestLatency(uint64(i*64), uint64(i*2), false)
		sc += cd.RequestLatency(uint64(i*64), uint64(i*2), false)
	}
	ratio := float64(se) / float64(sc)
	if ratio < 0.5 || ratio > 2.0 {
		t.Fatalf("event-driven and cycle-driven models diverge too much: %d vs %d", se, sc)
	}
	if cd.Ticks == 0 {
		t.Fatalf("cycle-driven model should have stepped cycles")
	}
	cd.Reset()
	if cd.Ticks != 0 || cd.TotalReqs != 0 {
		t.Fatalf("reset should clear cycle-driven state")
	}
}

// Property: DDR3 latency is always at least the zero-load latency, and
// requests presented in order complete with monotonically non-decreasing
// data-bus occupancy.
func TestDDR3LatencyLowerBound(t *testing.T) {
	timing := DefaultDDR3Timing()
	zeroLoad := (timing.TRCD + timing.TCAS + timing.TBurst) * timing.CPUCyclesPerMemCycle
	f := func(addrs []uint16, gaps []uint8) bool {
		d := NewDDR3("mem", timing)
		var cycle uint64
		n := len(addrs)
		if len(gaps) < n {
			n = len(gaps)
		}
		for i := 0; i < n; i++ {
			lat := d.RequestLatency(uint64(addrs[i])*64, cycle, i%4 == 0)
			if lat < zeroLoad {
				return false
			}
			cycle += uint64(gaps[i])
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: the M/D/1 latency is always >= the zero-load latency and is a
// non-decreasing function of utilization (checked at the two extremes).
func TestMD1Bounds(t *testing.T) {
	f := func(gapsRaw []uint8) bool {
		m := NewMD1(1, 100, 8, nil)
		var cycle uint64
		for _, g := range gapsRaw {
			lat := m.Access(&cache.Request{LineAddr: 1, Cycle: cycle}) - cycle
			if lat < 100 {
				return false
			}
			cycle += uint64(g) + 1
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
