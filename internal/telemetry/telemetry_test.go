package telemetry

import (
	"bytes"
	"encoding/json"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestProbePublishSnapshotRoundTrip(t *testing.T) {
	p := new(Probe)
	s := Sample{
		Intervals: 7, BoundRounds: 9, Cycles: 71680, Instrs: 123456, WeaveEvents: 42,
		BoundNanos: 1111, WeaveNanos: 2222, ChainNanos: 333,
		PoolRuns: 14, PoolWakes: 28, PoolWorkers: 4,
		LiveThreads: 8, RunnableThreads: 6,
	}
	p.SetPhase(PhaseWeave)
	p.Publish(s)
	snap := p.Snapshot()
	if snap.Phase != "weave" {
		t.Errorf("phase = %q, want weave", snap.Phase)
	}
	if snap.Intervals != s.Intervals || snap.BoundRounds != s.BoundRounds ||
		snap.Cycles != s.Cycles || snap.Instrs != s.Instrs || snap.WeaveEvents != s.WeaveEvents {
		t.Errorf("progress counters did not round-trip: %+v", snap)
	}
	if snap.BoundNanos != s.BoundNanos || snap.WeaveNanos != s.WeaveNanos || snap.ChainNanos != s.ChainNanos {
		t.Errorf("nanos did not round-trip: %+v", snap)
	}
	if snap.PoolRuns != s.PoolRuns || snap.PoolWakes != s.PoolWakes || snap.PoolWorkers != s.PoolWorkers {
		t.Errorf("pool counters did not round-trip: %+v", snap)
	}
	if snap.LiveThreads != s.LiveThreads || snap.RunnableThreads != s.RunnableThreads {
		t.Errorf("scheduler gauges did not round-trip: %+v", snap)
	}
}

func TestProbeBeginRunRewinds(t *testing.T) {
	p := new(Probe)
	p.Publish(Sample{Intervals: 99, Cycles: 12345, Instrs: 777})
	p.SetPhase(PhaseDone)

	p.BeginRun(1000)
	snap := p.Snapshot()
	if snap.Intervals != 0 || snap.Cycles != 0 || snap.Instrs != 0 {
		t.Errorf("BeginRun did not rewind counters: %+v", snap)
	}
	if snap.Phase != "bound" {
		t.Errorf("phase after BeginRun = %q, want bound", snap.Phase)
	}
	if snap.StartNanos == 0 {
		t.Error("BeginRun did not record a start time")
	}
	if snap.MaxCycles != 1000 {
		t.Errorf("MaxCycles = %d, want 1000", snap.MaxCycles)
	}
}

func TestNilProbeIsSafe(t *testing.T) {
	var p *Probe
	p.BeginRun(10)
	p.SetPhase(PhaseBound)
	p.Publish(Sample{Intervals: 1})
	p.Reset()
	if snap := p.Snapshot(); snap.Phase != "idle" || snap.Intervals != 0 {
		t.Errorf("nil probe snapshot = %+v, want idle zero", snap)
	}
}

func TestSnapshotDerived(t *testing.T) {
	s := Snapshot{StartNanos: 1_000_000_000, MaxCycles: 200, Sample: Sample{Instrs: 2_000_000, Cycles: 50}}
	// 1 second elapsed, 2M instructions -> 2 MIPS.
	if got := s.SimMIPS(2_000_000_000); got < 1.99 || got > 2.01 {
		t.Errorf("SimMIPS = %v, want ~2", got)
	}
	if got := s.SimMIPS(500_000_000); got != 0 {
		t.Errorf("SimMIPS before start = %v, want 0", got)
	}
	if got := s.PctMaxCycles(); got != 25 {
		t.Errorf("PctMaxCycles = %v, want 25", got)
	}
	if got := (Snapshot{Sample: Sample{Cycles: 50}}).PctMaxCycles(); got != 0 {
		t.Errorf("PctMaxCycles without budget = %v, want 0", got)
	}
}

func TestSampleAdd(t *testing.T) {
	tot := Sample{PoolWorkers: 2, LiveThreads: 8, RunnableThreads: 6}
	tot.Add(Sample{Intervals: 3, Cycles: 30, Instrs: 300, BoundNanos: 10, PoolRuns: 5,
		PoolWorkers: 4, LiveThreads: 3, RunnableThreads: 1})
	tot.Add(Sample{Intervals: 4, Cycles: 40, Instrs: 400, BoundNanos: 20, PoolRuns: 7,
		PoolWorkers: 4, LiveThreads: 3, RunnableThreads: 1})
	if tot.Intervals != 7 || tot.Cycles != 70 || tot.Instrs != 700 || tot.BoundNanos != 30 || tot.PoolRuns != 12 {
		t.Errorf("counters not summed: %+v", tot)
	}
	if tot.PoolWorkers != 2 || tot.LiveThreads != 8 || tot.RunnableThreads != 6 {
		t.Errorf("gauges were summed: %+v", tot)
	}
}

// TestSnapshotJSONKeys pins the wire shape of a snapshot (zsim.ProgressSnapshot)
// to its key list, in order.
func TestSnapshotJSONKeys(t *testing.T) {
	snap := Snapshot{Phase: "bound", StartNanos: 1, MaxCycles: 2, Sample: Sample{
		Intervals: 1, BoundRounds: 1, Cycles: 1, Instrs: 1, WeaveEvents: 1,
		BoundNanos: 1, WeaveNanos: 1, ChainNanos: 1,
		PoolRuns: 1, PoolWakes: 1, PoolWorkers: 1,
		LiveThreads: 1, RunnableThreads: 1,
	}}
	b, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	// Every value is a scalar, so the object's tokens alternate key, value.
	dec := json.NewDecoder(bytes.NewReader(b))
	var keys []string
	if _, err := dec.Token(); err != nil { // {
		t.Fatal(err)
	}
	for dec.More() {
		k, err := dec.Token()
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, k.(string))
		if _, err := dec.Token(); err != nil {
			t.Fatal(err)
		}
	}
	want := []string{"phase", "intervals", "boundRounds", "cycles", "instrs", "weaveEvents",
		"boundNanos", "weaveNanos", "chainNanos", "poolRuns", "poolWakes", "poolWorkers",
		"liveThreads", "runnableThreads"}
	if !slices.Equal(keys, want) {
		t.Errorf("snapshot JSON keys = %v, want %v (%s)", keys, want, b)
	}
}

// TestSnapshotIsOnePublication checks that a reader never sees a snapshot
// that mixes two publications: a writer publishes samples whose counters all
// equal i, and every snapshot's counters must agree with one another. A torn
// read can only show at GOMAXPROCS >= 2.
func TestSnapshotIsOnePublication(t *testing.T) {
	const reads = 20_000
	p := new(Probe)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 1; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			n := uint64(i)
			p.Publish(Sample{
				Intervals: n, BoundRounds: n, Cycles: n, Instrs: n, WeaveEvents: n,
				BoundNanos: int64(n), WeaveNanos: int64(n), ChainNanos: int64(n),
				PoolRuns: n, PoolWakes: n, PoolWorkers: i,
				LiveThreads: i, RunnableThreads: i,
			})
		}
	}()
	torn := 0
	for range reads {
		if !oneValue(p.Snapshot()) {
			torn++
		}
	}
	close(stop)
	wg.Wait()
	if torn > 0 {
		t.Errorf("%d of %d snapshots mixed two publications", torn, reads)
	}
}

// oneValue reports whether every published integer field of s (the fields
// that reach JSON) holds the same value.
func oneValue(s Snapshot) bool {
	v := reflect.ValueOf(s)
	var first int64
	seen := false
	for _, f := range reflect.VisibleFields(v.Type()) {
		if f.Tag.Get("json") == "-" {
			continue
		}
		var x int64
		switch fv := v.FieldByIndex(f.Index); fv.Kind() {
		case reflect.Int, reflect.Int64:
			x = fv.Int()
		case reflect.Uint64:
			x = int64(fv.Uint())
		default:
			continue
		}
		if seen && x != first {
			return false
		}
		first, seen = x, true
	}
	return true
}

func TestHeartbeatEmitsFinalLine(t *testing.T) {
	var buf bytes.Buffer
	p := new(Probe)
	p.BeginRun(0)
	p.Publish(Sample{Intervals: 5, Cycles: 51200, Instrs: 1000, LiveThreads: 4, RunnableThreads: 2})
	// A period far longer than the test: only the stop-time line can appear.
	stop := StartHeartbeat(&buf, p, "test: ", time.Hour)
	stop()
	stop() // idempotent
	out := buf.String()
	if got := strings.Count(out, "\n"); got != 1 {
		t.Fatalf("want exactly 1 heartbeat line, got %d: %q", got, out)
	}
	for _, want := range []string{"test: progress:", "phase=bound", "intervals=5", "cycles=51200", "instrs=1000", "threads=2/4", "(done)"} {
		if !strings.Contains(out, want) {
			t.Errorf("heartbeat line missing %q: %q", want, out)
		}
	}
}

func TestHeartbeatPeriodic(t *testing.T) {
	var buf safeBuffer
	p := new(Probe)
	p.BeginRun(0)
	stop := StartHeartbeat(&buf, p, "", 5*time.Millisecond)
	time.Sleep(60 * time.Millisecond)
	stop()
	if got := strings.Count(buf.String(), "\n"); got < 2 {
		t.Errorf("want >= 2 heartbeat lines over 60ms at 5ms period, got %d", got)
	}
}

func TestPromWriterExposition(t *testing.T) {
	var buf bytes.Buffer
	pw := NewPromWriter(&buf)
	pw.Family("zsim_test_total", "counter", "A counter with a \"quoted\"\nhelp string.")
	pw.UintSample("zsim_test_total", []Label{{"kind", `a"b\c` + "\nd"}}, 42)
	pw.Sample("zsim_test_gauge", nil, 1.5)
	out := buf.String()
	wantLines := []string{
		`# HELP zsim_test_total A counter with a "quoted"\nhelp string.`,
		`# TYPE zsim_test_total counter`,
		`zsim_test_total{kind="a\"b\\c\nd"} 42`,
		`zsim_test_gauge 1.5`,
	}
	gotLines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("got %d lines, want %d:\n%s", len(gotLines), len(wantLines), out)
	}
	for i, want := range wantLines {
		if gotLines[i] != want {
			t.Errorf("line %d = %q, want %q", i, gotLines[i], want)
		}
	}
}

func TestHistogramBuckets(t *testing.T) {
	// All values and bounds are exactly representable in binary so the _sum
	// line has one exact rendering.
	h := NewHistogram([]float64{0.125, 1, 10})
	for _, v := range []float64{0.0625, 0.125, 0.5, 2, 100} {
		h.Observe(v)
	}
	if h.total != 5 {
		t.Fatalf("total = %d, want 5", h.total)
	}
	var buf bytes.Buffer
	pw := NewPromWriter(&buf)
	h.Write(pw, "lat", []Label{{"outcome", "ok"}})
	out := buf.String()
	// Cumulative buckets: <=0.125 holds 0.0625 and 0.125; <=1 adds 0.5;
	// <=10 adds 2; +Inf adds 100.
	for _, want := range []string{
		`lat_bucket{outcome="ok",le="0.125"} 2`,
		`lat_bucket{outcome="ok",le="1"} 3`,
		`lat_bucket{outcome="ok",le="10"} 4`,
		`lat_bucket{outcome="ok",le="+Inf"} 5`,
		`lat_sum{outcome="ok"} 102.6875`,
		`lat_count{outcome="ok"} 5`,
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestTraceSinkCapAndExport(t *testing.T) {
	sink := NewTraceSink(4)
	base := time.Unix(100, 0)
	for i := 0; i < 6; i++ {
		sink.Add(TrackPhases, "bound", base.Add(time.Duration(i)*time.Millisecond), time.Millisecond, uint64(i))
	}
	sink.Add(TrackPhases, "weave", base, time.Microsecond, 9) // dropped too
	if sink.Len() != 4 {
		t.Errorf("Len = %d, want 4", sink.Len())
	}
	if sink.Dropped() != 3 {
		t.Errorf("Dropped = %d, want 3", sink.Dropped())
	}

	var buf bytes.Buffer
	if err := sink.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("trace export is not valid JSON: %v\n%s", err, buf.String())
	}
	var slices, meta int
	for _, ev := range events {
		switch ev["ph"] {
		case "X":
			slices++
			if ev["name"] != "bound" {
				t.Errorf("slice name = %v", ev["name"])
			}
		case "M":
			meta++
		}
	}
	if slices != 4 {
		t.Errorf("exported %d slices, want 4", slices)
	}
	if meta == 0 {
		t.Error("no metadata events (thread names / dropped marker)")
	}
}

func TestTraceSinkNilSafe(t *testing.T) {
	var sink *TraceSink
	sink.Add(TrackPhases, "bound", time.Now(), time.Millisecond, 1)
	if sink.Len() != 0 || sink.Dropped() != 0 {
		t.Error("nil sink should read as empty")
	}
}

func TestPhaseName(t *testing.T) {
	cases := map[uint32]string{PhaseIdle: "idle", PhaseBound: "bound", PhaseWeave: "weave", PhaseDone: "done", 99: "idle"}
	for ph, want := range cases {
		if got := PhaseName(ph); got != want {
			t.Errorf("PhaseName(%d) = %q, want %q", ph, got, want)
		}
	}
}

// safeBuffer serializes Writes from the heartbeat goroutine with reads from
// the test goroutine.
type safeBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *safeBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *safeBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}
