package serve_test

// Warm-pool tests: the shape-keyed simulator pool must be invisible in the
// results (warm runs bit-identical to fresh runs through the HTTP API),
// visible in the telemetry (reused flags, /healthz occupancy and hit-rate,
// audit detail), and safe under concurrent same-shape load.

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"zsim"
	"zsim/internal/serve"
)

// detJob is a deterministic job inside the documented determinism envelope
// (single thread, no shared data — see TestDeterminismMatchesFacade), so a
// warm-simulator rerun must reproduce a fresh run's metrics exactly.
func detJob() *serve.JobRequest {
	return &serve.JobRequest{
		Preset:      "small",
		Workloads:   []serve.WorkloadSpec{{Name: "fluidanimate", Threads: 1, Blocks: 300}},
		HostThreads: 2,
		Seed:        7,
	}
}

// healthPool decodes the /healthz pool block.
type healthPool struct {
	Size      int    `json:"size"`
	Occupancy int    `json:"occupancy"`
	Shapes    int    `json:"shapes"`
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Returns   uint64 `json:"returns"`
	Discards  uint64 `json:"discards"`
}

func getHealthPool(t *testing.T, ts *httptest.Server) healthPool {
	t.Helper()
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var body struct {
		Status string     `json:"status"`
		Pool   healthPool `json:"pool"`
	}
	decodeInto(t, resp, &body)
	if body.Status != "ok" {
		t.Fatalf("healthz status %q", body.Status)
	}
	return body.Pool
}

// runToSuccess submits a job and returns its result once it succeeds.
func runToSuccess(t *testing.T, ts *httptest.Server, req *serve.JobRequest) *serve.JobResult {
	t.Helper()
	st := submit(t, ts, req)
	st = waitState(t, ts, st.ID, terminal)
	if st.State != serve.StateSucceeded {
		t.Fatalf("job ended %q (%s)", st.State, st.Error)
	}
	return getResult(t, ts, st.ID)
}

// sameMetrics compares two job results' simulated metrics, ignoring the
// host-time-derived fields that can never match.
func sameMetrics(a, b *zsim.Metrics) bool {
	if a == nil || b == nil {
		return a == b
	}
	x, y := *a, *b
	x.HostNanos, y.HostNanos = 0, 0
	x.SimMIPS, y.SimMIPS = 0, 0
	return x == y
}

// TestWarmPoolReuseIdentity drives the same job through one pooled worker
// three times: the first run constructs, the next two must come from the
// warm pool (Reused), and all three — plus a run on a pool-disabled server —
// must report identical simulated metrics. The pool telemetry (healthz
// counters, audit "reused=true" detail, flat arena footprint) must match.
func TestWarmPoolReuseIdentity(t *testing.T) {
	var audit bytes.Buffer
	s, ts := newTestServer(t, serve.Options{Workers: 1, PoolSize: 2, Audit: &audit})

	var results []*serve.JobResult
	for i := 0; i < 3; i++ {
		results = append(results, runToSuccess(t, ts, detJob()))
	}
	if results[0].Reused {
		t.Fatalf("first job cannot be served warm")
	}
	for i, res := range results[1:] {
		if !res.Reused {
			t.Fatalf("job %d not served from the warm pool: %+v", i+2, res)
		}
	}
	for i, res := range results[1:] {
		if !sameMetrics(results[0].Metrics, res.Metrics) {
			t.Fatalf("warm run %d diverged from fresh:\n fresh: %+v\n warm:  %+v",
				i+2, results[0].Metrics, res.Metrics)
		}
	}
	if results[0].ArenaChunks == 0 || results[0].ArenaBytes == 0 {
		t.Fatalf("arena stats missing from job result: %+v", results[0])
	}
	if results[1].ArenaChunks != results[2].ArenaChunks || results[1].ArenaBytes != results[2].ArenaBytes {
		t.Fatalf("warm arena footprint not flat: %d/%d then %d/%d",
			results[1].ArenaChunks, results[1].ArenaBytes,
			results[2].ArenaChunks, results[2].ArenaBytes)
	}

	pool := getHealthPool(t, ts)
	if pool.Size <= 0 {
		t.Fatalf("pool disabled in healthz: %+v", pool)
	}
	if pool.Hits != 2 || pool.Misses != 1 || pool.Returns != 3 {
		t.Fatalf("pool counters: %+v, want 2 hits / 1 miss / 3 returns", pool)
	}
	if pool.Occupancy != 1 || pool.Shapes != 1 {
		t.Fatalf("pool occupancy: %+v, want 1 simulator of 1 shape", pool)
	}
	if rate := float64(pool.Hits) / float64(pool.Hits+pool.Misses); rate < 0.6 || rate > 0.7 {
		t.Fatalf("pool hit rate %v, want 2/3", rate)
	}

	// Identity also holds against a server with pooling disabled entirely.
	_, plain := newTestServer(t, serve.Options{Workers: 1})
	fresh := runToSuccess(t, plain, detJob())
	if fresh.Reused {
		t.Fatalf("pool-disabled server reported a warm run")
	}
	if !sameMetrics(fresh.Metrics, results[2].Metrics) {
		t.Fatalf("pooled server diverged from pool-disabled server:\n off: %+v\n on:  %+v",
			fresh.Metrics, results[2].Metrics)
	}

	// The audit trail marks warm servings.
	s.Shutdown(time.Second)
	if !strings.Contains(audit.String(), "reused=true") {
		t.Fatalf("audit log never recorded a warm serving:\n%s", audit.String())
	}
}

// TestWarmPoolShapeSeparation interleaves two configuration shapes: a job of
// one shape must never be served by a simulator built for the other, and the
// pool retains both shapes side by side.
func TestWarmPoolShapeSeparation(t *testing.T) {
	_, ts := newTestServer(t, serve.Options{Workers: 1, PoolSize: 4, PoolPerShape: 2})

	westmere := &serve.JobRequest{
		Preset:      "westmere",
		Workloads:   []serve.WorkloadSpec{{Name: "fluidanimate", Threads: 1, Blocks: 40}},
		HostThreads: 2,
		Seed:        7,
	}
	small := runToSuccess(t, ts, detJob())
	other := runToSuccess(t, ts, westmere)
	if other.Reused {
		t.Fatalf("westmere job served by the small-shape simulator")
	}
	warm := runToSuccess(t, ts, detJob())
	if !warm.Reused {
		t.Fatalf("small-shape job missed despite a warm small simulator")
	}
	if !sameMetrics(small.Metrics, warm.Metrics) {
		t.Fatalf("warm small run diverged:\n fresh: %+v\n warm:  %+v", small.Metrics, warm.Metrics)
	}
	pool := getHealthPool(t, ts)
	if pool.Shapes != 2 || pool.Occupancy != 2 {
		t.Fatalf("pool should hold both shapes: %+v", pool)
	}
}

// TestWarmPoolConcurrentSameShape hammers one shape with concurrent jobs
// across several workers (this package's tests run under -race in CI): every
// job must succeed with identical metrics, and the pool must account for
// every lookup.
func TestWarmPoolConcurrentSameShape(t *testing.T) {
	const jobs = 12
	_, ts := newTestServer(t, serve.Options{
		Workers:      4,
		QueueDepth:   jobs,
		PoolSize:     4,
		PoolPerShape: 4,
	})

	ids := make([]string, jobs)
	var wg sync.WaitGroup
	for i := range ids {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp := postJSON(t, ts.URL+"/jobs", detJob())
			var st serve.JobStatus
			if resp.StatusCode != http.StatusAccepted {
				resp.Body.Close()
				t.Errorf("submit %d: HTTP %d", i, resp.StatusCode)
				return
			}
			decodeInto(t, resp, &st)
			ids[i] = st.ID
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	var baseline *zsim.Metrics
	reused := 0
	for _, id := range ids {
		st := waitState(t, ts, id, terminal)
		if st.State != serve.StateSucceeded {
			t.Fatalf("job %s ended %q (%s)", id, st.State, st.Error)
		}
		res := getResult(t, ts, id)
		if res.Reused {
			reused++
		}
		if baseline == nil {
			baseline = res.Metrics
			continue
		}
		if !sameMetrics(baseline, res.Metrics) {
			t.Fatalf("concurrent warm runs diverged:\n a: %+v\n b: %+v", baseline, res.Metrics)
		}
	}

	pool := getHealthPool(t, ts)
	if pool.Hits+pool.Misses != jobs {
		t.Fatalf("pool lookups %d+%d, want %d", pool.Hits, pool.Misses, jobs)
	}
	// Each of the 4 workers returns its simulator before taking its next
	// job, so at most the first wave (one per worker) can miss.
	if pool.Misses > 4 {
		t.Fatalf("too many pool misses under steady same-shape load: %+v", pool)
	}
	if reused != int(pool.Hits) {
		t.Fatalf("reused results (%d) disagree with pool hits (%d)", reused, pool.Hits)
	}
	if msg := fmt.Sprintf("%+v", pool); pool.Size <= 0 || pool.Occupancy == 0 {
		t.Fatalf("pool should retain warm simulators after the burst: %s", msg)
	}
}

// poolWorkers counts the goroutines running a bound-phase pool worker.
func poolWorkers() int {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return strings.Count(string(buf[:n]), "engine.(*Pool).worker(")
		}
		buf = make([]byte, 2*len(buf))
	}
}

// TestWarmPoolLifecycle runs a job whose first bound round has four cores on
// two host threads, so the pool's second worker is spawned, and parks its
// simulator in the warm pool: no pool worker may survive the job, and the
// parked simulator still serves the next job warm.
func TestWarmPoolLifecycle(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	_, ts := newTestServer(t, serve.Options{Workers: 1, PoolSize: 2})
	job := func() *serve.JobRequest {
		return &serve.JobRequest{
			Preset:      "small",
			Workloads:   []serve.WorkloadSpec{{Name: "blackscholes", Threads: 4, Blocks: 200}},
			HostThreads: 2,
		}
	}
	for i := range 2 {
		if res := runToSuccess(t, ts, job()); res.Reused != (i == 1) {
			t.Fatalf("job %d: reused = %v", i+1, res.Reused)
		}
		if pool := getHealthPool(t, ts); pool.Occupancy != 1 {
			t.Fatalf("job %d: pool occupancy %d, want its simulator parked", i+1, pool.Occupancy)
		}
		deadline := time.Now().Add(5 * time.Second)
		for n := poolWorkers(); n > 0; n = poolWorkers() {
			if time.Now().After(deadline) {
				t.Fatalf("job %d: %d pool workers outlived the run of a parked simulator", i+1, n)
			}
			runtime.Gosched()
		}
	}
}

// TestWarmPoolHostThreadsInShape: a simulator's worker pool is sized by its
// first run, so a job asking for more host threads than a pooled simulator
// was built with must not be served by it.
func TestWarmPoolHostThreadsInShape(t *testing.T) {
	_, ts := newTestServer(t, serve.Options{Workers: 1, PoolSize: 4})
	one, two := detJob(), detJob()
	one.HostThreads = 1
	if res := runToSuccess(t, ts, one); res.Reused {
		t.Fatalf("first job cannot be served warm")
	}
	if res := runToSuccess(t, ts, two); res.Reused {
		t.Fatalf("a 2-host-thread job was served by a simulator built for 1")
	}
	if res := runToSuccess(t, ts, detJob()); !res.Reused {
		t.Fatalf("a repeat of the 2-host-thread job was not served warm")
	}
}
