package serve_test

// Tests for zsimd's observability surface: the Prometheus /metrics endpoint
// (valid exposition, histogram counts that match the job count, counters that
// stay monotone across jobs and warm-pool reuse), the live progress block of
// GET /jobs/{id}, the extended /healthz payload, and scraping under load
// (the race detector is the assertion for that one).

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"zsim/internal/campaign"
	"zsim/internal/serve"
)

// scrapeMetrics fetches /metrics and parses it as Prometheus text exposition,
// failing the test on any malformed line. Keys are the full sample name
// including labels, exactly as exposed.
func scrapeMetrics(t *testing.T, ts *httptest.Server) map[string]float64 {
	t.Helper()
	samples, err := scrape(ts)
	if err != nil {
		t.Fatal(err)
	}
	return samples
}

// scrape is scrapeMetrics for goroutines other than the test's own: it
// returns what went wrong instead of failing the test.
func scrape(ts *httptest.Server) (map[string]float64, error) {
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: HTTP %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		return nil, fmt.Errorf("metrics Content-Type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	return parseExposition(string(body))
}

// parseExposition validates the scrape line by line: every line is a HELP/TYPE
// comment or a `name{labels} value` sample with a parseable float value.
func parseExposition(body string) (map[string]float64, error) {
	samples := make(map[string]float64)
	typed := make(map[string]bool) // families with a # TYPE line
	for _, line := range strings.Split(body, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.Fields(line)
			if len(fields) < 4 || (fields[1] != "HELP" && fields[1] != "TYPE") {
				return nil, fmt.Errorf("malformed comment line: %q", line)
			}
			if fields[1] == "TYPE" {
				typed[fields[2]] = true
			}
			continue
		}
		// name{labels} value — the value is the last space-separated field,
		// and label values in this exposition never contain spaces.
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			return nil, fmt.Errorf("malformed sample line: %q", line)
		}
		name, valStr := line[:sp], line[sp+1:]
		val, err := strconv.ParseFloat(valStr, 64)
		if err != nil && valStr != "+Inf" && valStr != "NaN" {
			return nil, fmt.Errorf("unparseable value in %q: %v", line, err)
		}
		if _, dup := samples[name]; dup {
			return nil, fmt.Errorf("duplicate sample %q", name)
		}
		samples[name] = val
		// Every sample belongs to a declared family (histogram samples carry
		// the _bucket/_sum/_count suffixes).
		family := name
		if i := strings.IndexByte(family, '{'); i >= 0 {
			family = family[:i]
		}
		base := family
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			base = strings.TrimSuffix(base, suf)
		}
		if !typed[family] && !typed[base] {
			return nil, fmt.Errorf("sample %q has no # TYPE declaration", name)
		}
	}
	if len(samples) == 0 {
		return nil, fmt.Errorf("empty exposition")
	}
	return samples, nil
}

// sumBySuffix sums sample values whose name starts with prefix and, after the
// label block, ends the metric name with the given metric suffix.
func sumByPrefix(samples map[string]float64, prefix string) float64 {
	var sum float64
	for name, v := range samples {
		if strings.HasPrefix(name, prefix) {
			sum += v
		}
	}
	return sum
}

func TestMetricsExposition(t *testing.T) {
	_, ts := newTestServer(t, serve.Options{Workers: 1, PoolSize: 4})

	const jobs = 3
	for i := 0; i < jobs; i++ {
		req := quickJob()
		req.Seed = uint64(i + 1)
		st := submit(t, ts, req)
		if st = waitState(t, ts, st.ID, terminal); st.State != serve.StateSucceeded {
			t.Fatalf("job %d ended %q (%s)", i, st.State, st.Error)
		}
	}

	samples := scrapeMetrics(t, ts)

	if got := samples[`zsimd_jobs_total{outcome="succeeded"}`]; got != jobs {
		t.Errorf("zsimd_jobs_total{succeeded} = %v, want %d", got, jobs)
	}
	// The histogram counts across all outcome/shape series must sum to the
	// total number of finished jobs.
	if got := sumByPrefix(samples, "zsimd_job_latency_seconds_count"); got != jobs {
		t.Errorf("sum of latency _count series = %v, want %d", got, jobs)
	}
	if got := sumByPrefix(samples, "zsimd_job_latency_seconds_sum"); got <= 0 {
		t.Errorf("latency _sum = %v, want > 0", got)
	}

	// Engine counters reflect the completed work.
	for _, name := range []string{
		"zsim_engine_intervals_total",
		"zsim_engine_cycles_total",
		"zsim_engine_instructions_total",
		"zsim_engine_pool_runs_total",
	} {
		if samples[name] <= 0 {
			t.Errorf("%s = %v, want > 0", name, samples[name])
		}
	}
	// Identical jobs reuse warm simulators: jobs 2 and 3 hit the pool.
	if got := samples["zsimd_pool_hits_total"]; got != jobs-1 {
		t.Errorf("zsimd_pool_hits_total = %v, want %d", got, jobs-1)
	}
	// Gauges the gates below rely on exist even when zero.
	for _, name := range []string{
		"zsimd_queue_depth", "zsimd_workers", "zsimd_jobs_inflight",
		`zsim_engine_running_jobs{phase="bound"}`,
	} {
		if _, ok := samples[name]; !ok {
			t.Errorf("missing sample %s", name)
		}
	}
}

// TestMetricsMonotonic: counters never dip across scrapes, including across
// warm-pool reuse (the final probe snapshot is folded into the completed
// totals before the simulator — whose probe the next job rewinds — can be
// checked out again) and across the eviction of finished campaigns (one is
// retained, so each round's campaign evicts the last one).
func TestMetricsMonotonic(t *testing.T) {
	_, ts := newTestServer(t, serve.Options{Workers: 1, PoolSize: 4, RetainJobs: 1})

	counters := []string{
		"zsim_engine_intervals_total",
		"zsim_engine_cycles_total",
		"zsim_engine_instructions_total",
		"zsim_engine_weave_events_total",
		"zsim_engine_bound_seconds_total",
		"zsim_engine_chain_seconds_total",
		"zsim_engine_pool_runs_total",
		`zsimd_jobs_total{outcome="succeeded"}`,
		"zsimd_campaign_points_done_total",
	}
	prev := make(map[string]float64)
	for round := 0; round < 3; round++ {
		st := submit(t, ts, quickJob())
		if st = waitState(t, ts, st.ID, terminal); st.State != serve.StateSucceeded {
			t.Fatalf("round %d job ended %q (%s)", round, st.State, st.Error)
		}
		camp := submitCampaign(t, ts, &serve.CampaignRequest{Base: *quickJob(), Axes: campaign.Axes{Seeds: []uint64{1, 2}}})
		if fin := waitCampaign(t, ts, camp.ID, time.Minute); fin.State != "done" {
			t.Fatalf("round %d campaign ended %+v", round, fin)
		}
		samples := scrapeMetrics(t, ts)
		for _, name := range counters {
			if samples[name] < prev[name] {
				t.Errorf("round %d: %s dipped %v -> %v", round, name, prev[name], samples[name])
			}
			prev[name] = samples[name]
		}
	}
	// Three identical completed jobs: intervals must have actually advanced.
	if prev["zsim_engine_intervals_total"] <= 0 {
		t.Error("intervals_total never advanced")
	}
	if prev["zsimd_campaign_points_done_total"] != 6 {
		t.Errorf("campaign_points_done_total = %v after three 2-point campaigns, want 6", prev["zsimd_campaign_points_done_total"])
	}
}

// TestMetricsPoolRunsPerJob: a warm simulator keeps its worker pool, whose own
// counters run over the pool's whole life, yet each folded job must add only
// its own launches. Two identical warm jobs therefore add equal increments;
// counting from the pool's birth made every job re-count all earlier ones.
// One host thread keeps the job's bound rounds, and so its launch count,
// independent of host timing.
func TestMetricsPoolRunsPerJob(t *testing.T) {
	_, ts := newTestServer(t, serve.Options{Workers: 1, PoolSize: 4})
	run := func() map[string]float64 {
		req := quickJob()
		req.HostThreads = 1
		st := submit(t, ts, req)
		if st = waitState(t, ts, st.ID, terminal); st.State != serve.StateSucceeded {
			t.Fatalf("job ended %q (%s)", st.State, st.Error)
		}
		return scrapeMetrics(t, ts)
	}
	cold := run() // builds the simulator the next two jobs reuse
	warm1, warm2 := run(), run()
	if got := warm2["zsimd_pool_hits_total"]; got != 2 {
		t.Fatalf("zsimd_pool_hits_total = %v, want 2", got)
	}
	const name = "zsim_engine_pool_runs_total"
	d1, d2 := warm1[name]-cold[name], warm2[name]-warm1[name]
	if cold[name] <= 0 || d1 != cold[name] || d2 != cold[name] {
		t.Errorf("%s: identical jobs added %v (cold), %v and %v (warm)", name, cold[name], d1, d2)
	}
}

// TestJobProgressWhileRunning: a running job's status carries a live progress
// block fed by the telemetry probe; it disappears once the job is terminal.
func TestJobProgressWhileRunning(t *testing.T) {
	_, ts := newTestServer(t, serve.Options{Workers: 1})
	st := submit(t, ts, endlessJob())
	waitState(t, ts, st.ID, func(s string) bool { return s == serve.StateRunning })

	deadline := time.Now().Add(30 * time.Second)
	var got serve.JobStatus
	for {
		got = getStatus(t, ts, st.ID)
		if got.Progress != nil && got.Progress.Intervals > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no live progress with intervals > 0; last status %+v", got)
		}
		time.Sleep(2 * time.Millisecond)
	}
	p := got.Progress
	switch p.Phase {
	case "bound", "weave":
	default:
		t.Errorf("running phase = %q, want bound or weave", p.Phase)
	}
	if p.Cycles == 0 || p.Instructions == 0 {
		t.Errorf("progress counters empty: %+v", p)
	}
	if p.LiveThreads <= 0 {
		t.Errorf("liveThreads = %d, want > 0", p.LiveThreads)
	}

	resp := cancelJob(t, ts, st.ID)
	resp.Body.Close()
	final := waitState(t, ts, st.ID, terminal)
	if final.Progress != nil {
		t.Errorf("terminal status still carries progress: %+v", final.Progress)
	}
}

// TestHealthzBody: the liveness payload reports uptime, queue occupancy and
// worker configuration.
func TestHealthzBody(t *testing.T) {
	_, ts := newTestServer(t, serve.Options{Workers: 3, QueueDepth: 7})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var body struct {
		Status        string `json:"status"`
		Uptime        string `json:"uptime"`
		QueueDepth    int    `json:"queueDepth"`
		QueueCapacity int    `json:"queueCapacity"`
		InFlight      int    `json:"inFlight"`
		Workers       int    `json:"workers"`
	}
	decodeInto(t, resp, &body)
	if body.Status != "ok" || body.Uptime == "" {
		t.Errorf("healthz body incomplete: %+v", body)
	}
	if body.Workers != 3 || body.QueueCapacity != 7 {
		t.Errorf("healthz config wrong: %+v", body)
	}
}

// TestShedAuditCarriesJobID: shed submissions are audited with the job id the
// client saw in the 503 body, so an operator can line up client retries with
// server-side shed records.
func TestShedAuditCarriesJobID(t *testing.T) {
	audit := new(lockedBuffer)
	s := serve.New(serve.Options{Workers: 1, QueueDepth: 1, Audit: audit})
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		s.Shutdown(100 * time.Millisecond)
		ts.Close()
	})

	running := submit(t, ts, endlessJob())
	waitState(t, ts, running.ID, func(st string) bool { return st == serve.StateRunning })
	queued := submit(t, ts, endlessJob())

	resp := postJSON(t, ts.URL+"/jobs", quickJob())
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("overload submission: HTTP %d, want 503", resp.StatusCode)
	}
	resp.Body.Close()

	samples := scrapeMetrics(t, ts)
	if got := samples[`zsimd_sheds_total{reason="queue_full"}`]; got != 1 {
		t.Errorf(`zsimd_sheds_total{reason="queue_full"} = %v, want 1`, got)
	}

	// Quiesce before reading the audit stream.
	for _, id := range []string{running.ID, queued.ID} {
		resp := cancelJob(t, ts, id)
		resp.Body.Close()
	}
	for _, id := range []string{running.ID, queued.ID} {
		waitState(t, ts, id, terminal)
	}

	// The shed submission must have been audited with the job id the client
	// saw in the 503 body; that id took a number, so it answers 410 like any
	// job no longer retained.
	foundShed := false
	for _, line := range strings.Split(audit.String(), "\n") {
		if line == "" {
			continue
		}
		var rec struct {
			Event string `json:"event"`
			Job   string `json:"job"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("bad audit line %q: %v", line, err)
		}
		if rec.Event == "shed" {
			foundShed = true
			if rec.Job == "" {
				t.Errorf("shed audit record has no job id: %s", line)
			}
			if code, body := rawGet(t, ts.URL+"/jobs/"+rec.Job); code != http.StatusGone {
				t.Errorf("GET /jobs/%s of a shed job: HTTP %d %s, want 410", rec.Job, code, body)
			}
		}
	}
	if !foundShed {
		t.Error("no shed event in the audit log")
	}
}

// lockedBuffer is an audit sink that tolerates the server's concurrent writes
// while the test reads it.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestMetricsScrapeUnderLoad hammers /metrics while jobs run, cancel and
// recycle through the warm pool. CI runs this package under -race; the
// detector is the real assertion, plus every scrape must stay well-formed.
func TestMetricsScrapeUnderLoad(t *testing.T) {
	_, ts := newTestServer(t, serve.Options{Workers: 2, QueueDepth: 16, PoolSize: 4})

	stopScrape := make(chan struct{})
	var scrapes sync.WaitGroup
	for g := 0; g < 2; g++ {
		scrapes.Add(1)
		go func() {
			defer scrapes.Done()
			for {
				select {
				case <-stopScrape:
					return
				default:
				}
				scrapeMetrics(t, ts)
				time.Sleep(time.Millisecond)
			}
		}()
	}

	var wg sync.WaitGroup
	var mu sync.Mutex
	var ids []string
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req := quickJob()
			req.Seed = uint64(i + 1)
			resp := postJSON(t, ts.URL+"/jobs", req)
			if resp.StatusCode != http.StatusAccepted {
				resp.Body.Close()
				return
			}
			var st serve.JobStatus
			decodeInto(t, resp, &st)
			mu.Lock()
			ids = append(ids, st.ID)
			mu.Unlock()
			if i%3 == 0 {
				c := postJSON(t, ts.URL+"/jobs/"+st.ID+"/cancel", nil)
				c.Body.Close()
			}
		}(i)
	}
	wg.Wait()
	for _, id := range ids {
		waitState(t, ts, id, terminal)
	}
	close(stopScrape)
	scrapes.Wait()

	samples := scrapeMetrics(t, ts)
	if got := sumByPrefix(samples, "zsimd_job_latency_seconds_count"); got != float64(len(ids)) {
		t.Errorf("latency _count sum = %v, want %d", got, len(ids))
	}
}

// TestMetricsScrapeCoherent: every scrape is one snapshot of the server. Two
// scrapers run while two workers finish short jobs back to back, and each
// scrape must count every finished job in both places or in neither:
// Σ zsimd_jobs_total == Σ zsimd_job_latency_seconds_count.
func TestMetricsScrapeCoherent(t *testing.T) {
	_, ts := newTestServer(t, serve.Options{Workers: 2, QueueDepth: 8, PoolSize: 4})
	body, err := json.Marshal(quickJob())
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // keeps the workers busy; a shed just retries
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Errorf("POST /jobs: %v", err)
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusAccepted {
				time.Sleep(time.Millisecond)
			}
		}
	}()

	var mu sync.Mutex
	scrapes, incoherent := 0, 0
	var example [2]float64
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				samples, err := scrape(ts)
				if err != nil {
					t.Error(err)
					return
				}
				got := [2]float64{
					sumByPrefix(samples, "zsimd_jobs_total{"),
					sumByPrefix(samples, "zsimd_job_latency_seconds_count"),
				}
				mu.Lock()
				scrapes++
				if got[0] != got[1] {
					incoherent++
					example = got
				}
				mu.Unlock()
			}
		}()
	}
	time.Sleep(2 * time.Second)
	close(stop)
	wg.Wait()

	final := sumByPrefix(scrapeMetrics(t, ts), "zsimd_jobs_total{")
	t.Logf("%d scrapes over %v finished jobs", scrapes, final)
	if final < 10 {
		t.Fatalf("only %v jobs finished; the scrapes raced nothing", final)
	}
	if incoherent > 0 {
		t.Errorf("%d of %d scrapes disagree on [jobs latency-count], e.g. %v", incoherent, scrapes, example)
	}
}
