package serve_test

// Integration tests for the zsimd service layer, driven entirely through the
// HTTP API against live servers on ephemeral ports: job lifecycle,
// determinism versus the library facade, load shedding, per-job watchdogs,
// cancellation in every lifecycle stage, graceful drain, and the audit log.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"zsim"
	"zsim/internal/serve"
)

// newTestServer starts a serve.Server behind a real HTTP listener and
// registers cleanup that drains it.
func newTestServer(t *testing.T, opts serve.Options) (*serve.Server, *httptest.Server) {
	t.Helper()
	s := serve.New(opts)
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		s.Shutdown(100 * time.Millisecond)
		ts.Close()
	})
	return s, ts
}

// quickJob is a job that finishes on its own in well under a second.
func quickJob() *serve.JobRequest {
	return &serve.JobRequest{
		Workloads:   []serve.WorkloadSpec{{Name: "blackscholes", Threads: 2, Blocks: 50}},
		HostThreads: 2,
	}
}

// endlessJob is a job that never finishes on its own: only cancellation or a
// watchdog can stop it.
func endlessJob() *serve.JobRequest {
	return &serve.JobRequest{
		Workloads:   []serve.WorkloadSpec{{Name: "blackscholes", Threads: 2, Blocks: 1 << 30}},
		HostThreads: 2,
	}
}

func postJSON(t *testing.T, url string, body interface{}) *http.Response {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := http.Post(url, "application/json", &buf)
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	return resp
}

func decodeInto(t *testing.T, resp *http.Response, v interface{}) {
	t.Helper()
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("decode response: %v", err)
	}
}

// submit posts a job and requires it to be admitted.
func submit(t *testing.T, ts *httptest.Server, req *serve.JobRequest) serve.JobStatus {
	t.Helper()
	resp := postJSON(t, ts.URL+"/jobs", req)
	if resp.StatusCode != http.StatusAccepted {
		body := new(bytes.Buffer)
		body.ReadFrom(resp.Body)
		resp.Body.Close()
		t.Fatalf("submit: status %d: %s", resp.StatusCode, body)
	}
	var st serve.JobStatus
	decodeInto(t, resp, &st)
	// A worker may legitimately pick the job up (or even finish it) before
	// the admission response is serialized; only identity is guaranteed.
	if st.ID == "" || st.State == "" {
		t.Fatalf("bad admission status: %+v", st)
	}
	return st
}

func getStatus(t *testing.T, ts *httptest.Server, id string) serve.JobStatus {
	t.Helper()
	resp, err := http.Get(ts.URL + "/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		t.Fatalf("status %s: HTTP %d", id, resp.StatusCode)
	}
	var st serve.JobStatus
	decodeInto(t, resp, &st)
	return st
}

// waitState polls until the job reaches a state accepted by ok.
func waitState(t *testing.T, ts *httptest.Server, id string, ok func(string) bool) serve.JobStatus {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		st := getStatus(t, ts, id)
		if ok(st.State) {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in state %q", id, st.State)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func terminal(state string) bool {
	switch state {
	case serve.StateSucceeded, serve.StateFailed, serve.StateCancelled:
		return true
	}
	return false
}

func getResult(t *testing.T, ts *httptest.Server, id string) *serve.JobResult {
	t.Helper()
	resp, err := http.Get(ts.URL + "/jobs/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		t.Fatalf("result %s: HTTP %d", id, resp.StatusCode)
	}
	var res serve.JobResult
	decodeInto(t, resp, &res)
	return &res
}

func cancelJob(t *testing.T, ts *httptest.Server, id string) *http.Response {
	t.Helper()
	return postJSON(t, ts.URL+"/jobs/"+id+"/cancel", nil)
}

func TestJobLifecycle(t *testing.T) {
	_, ts := newTestServer(t, serve.Options{Workers: 1})

	st := submit(t, ts, quickJob())

	// Result before completion may 409 (if we catch it in flight).
	st = waitState(t, ts, st.ID, terminal)
	if st.State != serve.StateSucceeded {
		t.Fatalf("quick job ended %q (error %q)", st.State, st.Error)
	}
	if st.Started.IsZero() || st.Finished.IsZero() {
		t.Fatalf("lifecycle timestamps missing: %+v", st)
	}
	res := getResult(t, ts, st.ID)
	if res.Metrics == nil || res.Metrics.Instrs == 0 {
		t.Fatalf("result incomplete: %+v", res)
	}
	if res.Partial || res.Failure != nil {
		t.Fatalf("clean job should not be partial: %+v", res)
	}

	// Cancel after completion conflicts.
	if resp := cancelJob(t, ts, st.ID); resp.StatusCode != http.StatusConflict {
		t.Fatalf("cancel of finished job: HTTP %d", resp.StatusCode)
	} else {
		resp.Body.Close()
	}

	// Unknown jobs 404 on every per-job route.
	for _, path := range []string{"/jobs/nope", "/jobs/nope/result"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("GET %s: HTTP %d, want 404", path, resp.StatusCode)
		}
	}

	// Listing returns the job.
	resp, err := http.Get(ts.URL + "/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var list []serve.JobStatus
	decodeInto(t, resp, &list)
	if len(list) != 1 || list[0].ID != st.ID {
		t.Fatalf("listing wrong: %+v", list)
	}
}

func TestSubmitValidation(t *testing.T) {
	_, ts := newTestServer(t, serve.Options{})
	cases := []struct {
		name string
		body string
	}{
		{"malformed", `{not json`},
		{"unknown field", `{"bogus": 1}`},
		{"no workloads", `{"workloads": []}`},
		{"unknown workload", `{"workloads": [{"name": "no-such-benchmark"}]}`},
		{"unknown preset", `{"preset": "cray", "workloads": [{"name": "blackscholes"}]}`},
		{"unknown memory model", `{"config": {"numCores": 1, "memModel": "md-1",
			"l1i": {"sizeKB": 32}, "l1d": {"sizeKB": 32}, "l2": {"sizeKB": 256}, "l3": {"sizeKB": 1024}},
			"workloads": [{"name": "blackscholes"}]}`},
		// 72 private L2s exceed the L3 directory's 64 sharers: refused at
		// submit, not failed later when the chip is built.
		{"too many tiles", `{"config": {"numCores": 72,
			"l1i": {"sizeKB": 32}, "l1d": {"sizeKB": 32}, "l2": {"sizeKB": 256}, "l3": {"sizeKB": 1024}},
			"workloads": [{"name": "blackscholes"}]}`},
	}
	for _, c := range cases {
		resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: HTTP %d, want 400", c.name, resp.StatusCode)
		}
	}
}

// TestDeterminismMatchesFacade pins the service's execution path to the
// library's: the same job through zsimd must produce bit-identical simulated
// metrics to a direct facade run (host-time-derived fields excepted). The
// workload stays inside the documented determinism envelope (single thread,
// no shared data — see DESIGN.md "Determinism model"): multi-thread
// data-sharing workloads are path-altering by design and bit-identity is
// not claimed for them.
func TestDeterminismMatchesFacade(t *testing.T) {
	req := &serve.JobRequest{
		Preset:      "small",
		Workloads:   []serve.WorkloadSpec{{Name: "fluidanimate", Threads: 1, Blocks: 300}},
		HostThreads: 2,
		Seed:        7,
	}

	_, ts := newTestServer(t, serve.Options{Workers: 1})
	st := submit(t, ts, req)
	st = waitState(t, ts, st.ID, terminal)
	if st.State != serve.StateSucceeded {
		t.Fatalf("service run ended %q (%s)", st.State, st.Error)
	}
	got := getResult(t, ts, st.ID)

	sim, err := zsim.New(zsim.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	params, _ := zsim.LookupWorkload("fluidanimate")
	params.BlocksPerThread = 300
	sim.AddWorkload("fluidanimate", params, 1)
	sim.SetHostThreads(2)
	sim.SetSeed(7)
	want, err := sim.Run()
	if err != nil {
		t.Fatalf("facade run: %v", err)
	}

	// Host-time-dependent fields cannot match; everything simulated must.
	if !sameMetrics(got.Metrics, want.Metrics) {
		t.Fatalf("service metrics diverge from facade:\n service: %+v\n facade:  %+v", got.Metrics, want.Metrics)
	}
	if got.Intervals != want.Intervals || got.WeaveEvents != want.WeaveEvents {
		t.Fatalf("interval/event counts diverge: %d/%d vs %d/%d",
			got.Intervals, got.WeaveEvents, want.Intervals, want.WeaveEvents)
	}
}

func TestLoadSheddingQueueFull(t *testing.T) {
	_, ts := newTestServer(t, serve.Options{Workers: 1, QueueDepth: 1})

	// Occupy the single worker...
	running := submit(t, ts, endlessJob())
	waitState(t, ts, running.ID, func(s string) bool { return s == serve.StateRunning })
	// ...fill the queue...
	queued := submit(t, ts, endlessJob())
	// ...and the next submission must be shed, not blocked or dropped silently.
	resp := postJSON(t, ts.URL+"/jobs", quickJob())
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("overload submission: HTTP %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatalf("shed response missing Retry-After")
	}
	var eb struct {
		Error string `json:"error"`
	}
	decodeInto(t, resp, &eb)
	if eb.Error == "" {
		t.Fatalf("shed response should explain itself")
	}

	// The shed submission must not have registered a job.
	resp2, err := http.Get(ts.URL + "/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var list []serve.JobStatus
	decodeInto(t, resp2, &list)
	if len(list) != 2 {
		t.Fatalf("shed job leaked into the registry: %+v", list)
	}

	// Clean up: cancel both (running first, so the worker frees up and
	// reaches the queued one), then wait them out.
	for _, id := range []string{running.ID, queued.ID} {
		if resp := cancelJob(t, ts, id); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("cancel %s: HTTP %d", id, resp.StatusCode)
		} else {
			resp.Body.Close()
		}
	}
	for _, id := range []string{running.ID, queued.ID} {
		waitState(t, ts, id, terminal)
	}
}

// TestJobWatchdogTimeout proves a runaway job is reaped by the per-job
// deadline with partial metrics, and the daemon keeps serving afterwards.
func TestJobWatchdogTimeout(t *testing.T) {
	_, ts := newTestServer(t, serve.Options{Workers: 1, JobTimeout: 50 * time.Millisecond})

	st := submit(t, ts, endlessJob())
	st = waitState(t, ts, st.ID, terminal)
	if st.State != serve.StateFailed {
		t.Fatalf("runaway job ended %q, want failed", st.State)
	}
	res := getResult(t, ts, st.ID)
	if res.Failure == nil || res.Failure.Reason != "deadline-exceeded" {
		t.Fatalf("failure not typed as deadline-exceeded: %+v", res.Failure)
	}
	if !res.Partial || res.Metrics == nil || res.Metrics.Instrs == 0 {
		t.Fatalf("watchdogged job should keep partial metrics: %+v", res)
	}

	// The worker survived; a normal job still succeeds (under the same
	// server-wide deadline, so keep it comfortably fast).
	st2 := submit(t, ts, &serve.JobRequest{
		Workloads:   []serve.WorkloadSpec{{Name: "blackscholes", Threads: 1, Blocks: 5}},
		HostThreads: 1,
	})
	st2 = waitState(t, ts, st2.ID, terminal)
	if st2.State != serve.StateSucceeded {
		t.Fatalf("daemon unhealthy after watchdog: follow-up ended %q (%s)", st2.State, st2.Error)
	}
}

// TestRequestTimeoutTightensDeadline: a request-level budget applies even
// when the server default is unlimited.
func TestRequestTimeoutTightensDeadline(t *testing.T) {
	_, ts := newTestServer(t, serve.Options{Workers: 1})
	req := endlessJob()
	req.TimeoutMillis = 40
	st := submit(t, ts, req)
	st = waitState(t, ts, st.ID, terminal)
	res := getResult(t, ts, st.ID)
	if st.State != serve.StateFailed || res.Failure == nil || res.Failure.Reason != "deadline-exceeded" {
		t.Fatalf("request deadline not honoured: state=%q failure=%+v", st.State, res.Failure)
	}
}

func TestCancelRunningJob(t *testing.T) {
	_, ts := newTestServer(t, serve.Options{Workers: 1})
	st := submit(t, ts, endlessJob())
	waitState(t, ts, st.ID, func(s string) bool { return s == serve.StateRunning })

	if resp := cancelJob(t, ts, st.ID); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel: HTTP %d", resp.StatusCode)
	} else {
		resp.Body.Close()
	}
	st = waitState(t, ts, st.ID, terminal)
	if st.State != serve.StateCancelled {
		t.Fatalf("cancelled job ended %q", st.State)
	}
	res := getResult(t, ts, st.ID)
	if res.Failure == nil || res.Failure.Reason != "cancelled" {
		t.Fatalf("cancellation not typed: %+v", res.Failure)
	}
	// The cancel may land before the first interval completes, so the
	// partial may legitimately be empty — but it must always be present.
	if !res.Partial || res.Metrics == nil {
		t.Fatalf("cancelled job should keep partial metrics: %+v", res)
	}
}

func TestCancelQueuedJob(t *testing.T) {
	_, ts := newTestServer(t, serve.Options{Workers: 1, QueueDepth: 2})
	blocker := submit(t, ts, endlessJob())
	waitState(t, ts, blocker.ID, func(s string) bool { return s == serve.StateRunning })
	victim := submit(t, ts, quickJob())

	if resp := cancelJob(t, ts, victim.ID); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel queued: HTTP %d", resp.StatusCode)
	} else {
		resp.Body.Close()
	}
	// Unblock the worker so it reaches the victim.
	resp := cancelJob(t, ts, blocker.ID)
	resp.Body.Close()

	st := waitState(t, ts, victim.ID, terminal)
	if st.State != serve.StateCancelled {
		t.Fatalf("queued victim ended %q", st.State)
	}
	if !st.Started.IsZero() {
		t.Fatalf("cancelled-while-queued job should never start: %+v", st)
	}
	waitState(t, ts, blocker.ID, terminal)
}

// TestGracefulShutdownCancelsAfterGrace: Shutdown lets jobs drain for the
// grace period, then cooperatively cancels stragglers, which finish as
// cancelled with partial metrics — nothing is lost or leaked.
func TestGracefulShutdownCancelsAfterGrace(t *testing.T) {
	var audit bytes.Buffer
	s := serve.New(serve.Options{Workers: 1, Audit: &audit})
	ts := httptest.NewServer(s)
	defer ts.Close()

	st := submit(t, ts, endlessJob())
	waitState(t, ts, st.ID, func(state string) bool { return state == serve.StateRunning })

	done := make(chan struct{})
	go func() {
		s.Shutdown(30 * time.Millisecond)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("Shutdown hung")
	}

	// Post-drain: not ready, shedding, and the straggler ended cancelled.
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz after drain: HTTP %d, want 503", resp.StatusCode)
	}
	resp = postJSON(t, ts.URL+"/jobs", quickJob())
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submission after drain: HTTP %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatalf("drain shed missing Retry-After")
	}

	final := getStatus(t, ts, st.ID)
	if final.State != serve.StateCancelled {
		t.Fatalf("straggler ended %q, want cancelled", final.State)
	}
	res := getResult(t, ts, st.ID)
	if !res.Partial || res.Metrics == nil {
		t.Fatalf("straggler lost its partial metrics: %+v", res)
	}

	// The audit log tells the whole story, in order, flushed and complete.
	events := auditEvents(t, &audit)
	for _, want := range []string{"serve", "submit", "start", "cancel", "finish", "shutdown", "drained"} {
		if !events[want] {
			t.Fatalf("audit log missing %q event; got %v", want, events)
		}
	}
}

func TestHealthAndReady(t *testing.T) {
	_, ts := newTestServer(t, serve.Options{})
	for _, path := range []string{"/healthz", "/readyz"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: HTTP %d", path, resp.StatusCode)
		}
	}
}

// TestConcurrentSubmitAndCancel hammers the API from many goroutines — the
// race detector (CI runs this package with -race) is the real assertion.
func TestConcurrentSubmitAndCancel(t *testing.T) {
	_, ts := newTestServer(t, serve.Options{Workers: 2, QueueDepth: 32})

	var mu sync.Mutex
	var ids []string
	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req := quickJob()
			req.Seed = uint64(i + 1)
			resp := postJSON(t, ts.URL+"/jobs", req)
			if resp.StatusCode == http.StatusAccepted {
				var st serve.JobStatus
				decodeInto(t, resp, &st)
				mu.Lock()
				ids = append(ids, st.ID)
				mu.Unlock()
				if i%2 == 0 { // cancel half of them, wherever they are
					c := postJSON(t, ts.URL+"/jobs/"+st.ID+"/cancel", nil)
					c.Body.Close()
				}
			} else {
				resp.Body.Close()
			}
		}(i)
	}
	wg.Wait()

	for _, id := range ids {
		st := waitState(t, ts, id, terminal)
		if st.State == serve.StateFailed {
			t.Fatalf("job %s failed under concurrency: %s", id, st.Error)
		}
	}
}

// auditEvents parses a JSONL audit stream into the set of event names seen.
func auditEvents(t *testing.T, buf *bytes.Buffer) map[string]bool {
	t.Helper()
	events := make(map[string]bool)
	sc := bufio.NewScanner(bytes.NewReader(buf.Bytes()))
	for sc.Scan() {
		var rec struct {
			Event string `json:"event"`
		}
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("bad audit line %q: %v", sc.Text(), err)
		}
		if rec.Event == "" {
			t.Fatalf("audit line without event: %s", sc.Text())
		}
		events[rec.Event] = true
	}
	return events
}
