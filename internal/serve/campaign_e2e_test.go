package serve_test

// End-to-end campaign tests through the live HTTP API: deterministic sweep
// expansion into child jobs, bit-identity of child results against direct
// facade runs, live aggregates, quota-serialized release, cancellation, and
// drain-time persistence of campaign state to the audit log. The
// 1,000-point test at the bottom is the PR's acceptance gate: a same-shape
// seed sweep must sustain a warm-pool hit rate >= 90% while a concurrent
// high-priority job is admitted past the saturated queue.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"zsim"
	"zsim/internal/campaign"
	"zsim/internal/serve"
)

// campaignBase is the deterministic base job every sweep starts from (same
// envelope as detJob: single thread, no shared data).
func campaignBase() serve.JobRequest {
	return serve.JobRequest{
		Preset:      "small",
		Workloads:   []serve.WorkloadSpec{{Name: "fluidanimate", Threads: 1, Blocks: 300}},
		HostThreads: 2,
		Seed:        7,
	}
}

func submitCampaign(t *testing.T, ts *httptest.Server, req *serve.CampaignRequest) serve.CampaignStatus {
	t.Helper()
	resp := postJSON(t, ts.URL+"/campaigns", req)
	if resp.StatusCode != http.StatusAccepted {
		body := new(bytes.Buffer)
		body.ReadFrom(resp.Body)
		resp.Body.Close()
		t.Fatalf("submit campaign: HTTP %d: %s", resp.StatusCode, body)
	}
	var st serve.CampaignStatus
	decodeInto(t, resp, &st)
	if st.ID == "" || st.State == "" {
		t.Fatalf("bad campaign admission: %+v", st)
	}
	return st
}

func getCampaign(t *testing.T, ts *httptest.Server, id string) serve.CampaignStatus {
	t.Helper()
	resp, err := http.Get(ts.URL + "/campaigns/" + id)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		t.Fatalf("GET /campaigns/%s: HTTP %d", id, resp.StatusCode)
	}
	var st serve.CampaignStatus
	decodeInto(t, resp, &st)
	return st
}

// waitCampaign polls until the campaign leaves "running".
func waitCampaign(t *testing.T, ts *httptest.Server, id string, timeout time.Duration) serve.CampaignStatus {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		st := getCampaign(t, ts, id)
		if st.State != "running" {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("campaign %s stuck: %+v", id, st)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// facadeMetrics runs one campaign point's configuration directly through the
// zsim facade, mirroring exactly what the campaign layer does to the base
// config (the point label lives in Name, which is metrics-neutral).
func facadeMetrics(t *testing.T, cores int, seed uint64, blocks int) *zsim.Metrics {
	t.Helper()
	cfg := zsim.SmallConfig()
	if cores > 0 {
		cfg.NumCores = cores
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	sim, err := zsim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	params, _ := zsim.LookupWorkload("fluidanimate")
	params.BlocksPerThread = blocks
	sim.AddWorkload("fluidanimate", params, 1)
	sim.SetHostThreads(2)
	sim.SetSeed(seed)
	res, err := sim.Run()
	if err != nil {
		t.Fatalf("facade run (cores=%d seed=%d): %v", cores, seed, err)
	}
	return res.Metrics
}

// TestCampaignSweepMatchesFacade drives a cores × seeds sweep through the
// live API and checks the tentpole contract point by point: deterministic
// expansion into child jobs, child results bit-identical to direct facade
// runs of the same configuration, and live aggregates (outcomes, latency,
// scaling curves) matching what actually ran.
func TestCampaignSweepMatchesFacade(t *testing.T) {
	_, ts := newTestServer(t, serve.Options{Workers: 2, QueueDepth: 8, PoolSize: 2})

	st := submitCampaign(t, ts, &serve.CampaignRequest{
		Name: "cores-sweep",
		Base: campaignBase(),
		Axes: campaign.Axes{Cores: []int{2, 4}, Seeds: []uint64{3, 5}},
	})
	if st.Points != 4 || st.Shapes != 2 {
		t.Fatalf("expansion: %+v, want 4 points of 2 shapes", st)
	}

	fin := waitCampaign(t, ts, st.ID, 2*time.Minute)
	if fin.State != "done" || fin.Done != 4 || fin.Outstanding != 0 {
		t.Fatalf("campaign ended %+v", fin)
	}
	if fin.Finished.IsZero() {
		t.Fatalf("done campaign has no finish time")
	}

	detail := getCampaign(t, ts, st.ID)
	if len(detail.Children) != 4 {
		t.Fatalf("children: %v", detail.Children)
	}
	if detail.Summary == nil || detail.Summary.Outcomes["succeeded"] != 4 {
		t.Fatalf("summary: %+v", detail.Summary)
	}
	if detail.Summary.Latency == nil || detail.Summary.Latency.Count != 4 {
		t.Fatalf("latency: %+v", detail.Summary.Latency)
	}

	// Children carry their campaign identity and run at the sweep's class.
	first := getStatus(t, ts, detail.Children[0])
	if first.Campaign != st.ID || first.Point == nil || *first.Point != 0 || first.Priority != "low" {
		t.Fatalf("child status: %+v", first)
	}

	// Point order is the documented nesting (cores outer, seeds inner), and
	// every child's simulated metrics are bit-identical to a direct facade run
	// of the same point.
	wantPoints := []struct {
		cores int
		seed  uint64
	}{{2, 3}, {2, 5}, {4, 3}, {4, 5}}
	for i, wp := range wantPoints {
		got := getResult(t, ts, detail.Children[i])
		want := facadeMetrics(t, wp.cores, wp.seed, 300)
		if !sameMetrics(got.Metrics, want) {
			t.Fatalf("point %d (cores=%d seed=%d) diverged from facade:\n child:  %+v\n facade: %+v",
				i, wp.cores, wp.seed, got.Metrics, want)
		}
	}

	// The cores scaling curve reflects the two axis values in sweep order.
	var cores *campaign.Curve
	for i := range detail.Summary.Curves {
		if detail.Summary.Curves[i].Axis == "cores" {
			cores = &detail.Summary.Curves[i]
		}
	}
	if cores == nil || len(cores.Points) != 2 {
		t.Fatalf("cores curve: %+v", detail.Summary.Curves)
	}
	if cores.Points[0].Value != "2" || cores.Points[1].Value != "4" ||
		cores.Points[0].Done != 2 || cores.Points[1].Done != 2 {
		t.Fatalf("cores curve points: %+v", cores.Points)
	}
	if cores.Points[0].Speedup != 1.0 {
		t.Fatalf("curve base speedup = %v, want 1.0", cores.Points[0].Speedup)
	}

	// The result store indexes every child under the campaign.
	if rows := getResults(t, ts, "?campaign="+st.ID); len(rows) != 4 {
		t.Fatalf("campaign result rows: %d, want 4", len(rows))
	}

	// The campaign listing includes the sweep.
	resp, err := http.Get(ts.URL + "/campaigns")
	if err != nil {
		t.Fatal(err)
	}
	var list []serve.CampaignStatus
	decodeInto(t, resp, &list)
	if len(list) != 1 || list[0].ID != st.ID {
		t.Fatalf("campaign listing: %+v", list)
	}
}

// TestCampaignQuotaSerializesChildren: quota 1 means at most one outstanding
// child — every next child is submitted only after the previous one finished,
// even with idle workers available.
func TestCampaignQuotaSerializesChildren(t *testing.T) {
	_, ts := newTestServer(t, serve.Options{Workers: 2, QueueDepth: 8})

	base := campaignBase()
	base.Workloads[0].Blocks = 80
	st := submitCampaign(t, ts, &serve.CampaignRequest{
		Base:  base,
		Axes:  campaign.Axes{Seeds: []uint64{1, 2, 3}},
		Quota: 1,
	})
	fin := waitCampaign(t, ts, st.ID, 2*time.Minute)
	if fin.State != "done" || fin.Done != 3 {
		t.Fatalf("campaign ended %+v", fin)
	}
	detail := getCampaign(t, ts, st.ID)
	if len(detail.Children) != 3 {
		t.Fatalf("children: %v", detail.Children)
	}
	for i := 0; i < len(detail.Children)-1; i++ {
		prev := getStatus(t, ts, detail.Children[i])
		next := getStatus(t, ts, detail.Children[i+1])
		if prev.Finished.IsZero() || next.Submitted.Before(prev.Finished) {
			t.Fatalf("quota 1 violated: child %d submitted %v before child %d finished %v",
				i+1, next.Submitted, i, prev.Finished)
		}
	}
}

// TestCampaignCancel: cancelling a sweep stops releasing points, cancels the
// outstanding children, and settles the campaign in state "cancelled".
func TestCampaignCancel(t *testing.T) {
	_, ts := newTestServer(t, serve.Options{Workers: 2, QueueDepth: 8})

	base := campaignBase()
	base.Workloads[0].Blocks = 1 << 30 // children never finish on their own
	st := submitCampaign(t, ts, &serve.CampaignRequest{
		Base:  base,
		Axes:  campaign.Axes{Seeds: []uint64{1, 2, 3, 4, 5, 6}},
		Quota: 2,
	})

	// Wait until the sweep has children in flight.
	deadline := time.Now().Add(30 * time.Second)
	for {
		if cur := getCampaign(t, ts, st.ID); cur.Released >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("campaign never released children")
		}
		time.Sleep(2 * time.Millisecond)
	}

	resp := postJSON(t, ts.URL+"/campaigns/"+st.ID+"/cancel", nil)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel: HTTP %d", resp.StatusCode)
	}

	fin := waitCampaign(t, ts, st.ID, time.Minute)
	if fin.State != "cancelled" || fin.Outstanding != 0 {
		t.Fatalf("cancelled campaign settled as %+v", fin)
	}
	if fin.Released >= 6 {
		t.Fatalf("cancel did not stop point release: %+v", fin)
	}
	if rows := getResults(t, ts, "?campaign="+st.ID+"&outcome=cancelled"); len(rows) == 0 {
		t.Fatalf("no cancelled child rows in the result store")
	}

	// A second cancel reports the campaign already finished.
	resp = postJSON(t, ts.URL+"/campaigns/"+st.ID+"/cancel", nil)
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("second cancel: HTTP %d, want 409", resp.StatusCode)
	}

	// Unknown campaign IDs are 404 on both surfaces.
	for _, probe := range []func() *http.Response{
		func() *http.Response {
			r, err := http.Get(ts.URL + "/campaigns/campaign-999")
			if err != nil {
				t.Fatal(err)
			}
			return r
		},
		func() *http.Response { return postJSON(t, ts.URL+"/campaigns/campaign-999/cancel", nil) },
	} {
		r := probe()
		r.Body.Close()
		if r.StatusCode != http.StatusNotFound {
			t.Fatalf("unknown campaign: HTTP %d, want 404", r.StatusCode)
		}
	}
}

// TestCampaignDrainPersistsState: SIGTERM-style shutdown mid-sweep writes a
// campaign-drain audit record carrying the campaign's full terminal snapshot,
// and the audit stream archives every filed result row.
func TestCampaignDrainPersistsState(t *testing.T) {
	var audit bytes.Buffer
	s, ts := newTestServer(t, serve.Options{Workers: 1, QueueDepth: 4, Audit: &audit})

	base := campaignBase()
	base.Workloads[0].Blocks = 1 << 30
	st := submitCampaign(t, ts, &serve.CampaignRequest{
		Name:  "drained-sweep",
		Base:  base,
		Axes:  campaign.Axes{Seeds: []uint64{1, 2, 3, 4}},
		Quota: 1,
	})
	deadline := time.Now().Add(30 * time.Second)
	for {
		if cur := getCampaign(t, ts, st.ID); cur.Released >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("campaign never released a child")
		}
		time.Sleep(2 * time.Millisecond)
	}

	s.Shutdown(50 * time.Millisecond) // grace expires; the child is cancelled

	var drained *serve.CampaignStatus
	results := 0
	sc := bufio.NewScanner(bytes.NewReader(audit.Bytes()))
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		var rec struct {
			Event  string           `json:"event"`
			Job    string           `json:"job"`
			Detail string           `json:"detail"`
			Result *serve.ResultRow `json:"result"`
		}
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("bad audit line %q: %v", sc.Text(), err)
		}
		switch rec.Event {
		case "campaign-drain":
			if rec.Job != st.ID {
				t.Fatalf("drain record for unknown campaign %q", rec.Job)
			}
			var cs serve.CampaignStatus
			if err := json.Unmarshal([]byte(rec.Detail), &cs); err != nil {
				t.Fatalf("drain detail not a campaign snapshot: %v\n%s", err, rec.Detail)
			}
			drained = &cs
		case "result":
			t.Fatalf("separate result record; the finish record carries the row: %s", sc.Text())
		case "finish":
			if rec.Result == nil {
				t.Fatalf("finish record without embedded row: %s", sc.Text())
			}
			if rec.Result.Campaign == st.ID {
				results++
			}
		}
	}
	if drained == nil {
		t.Fatalf("no campaign-drain record in audit log:\n%s", audit.String())
	}
	if drained.Name != "drained-sweep" || drained.Points != 4 || drained.Summary == nil {
		t.Fatalf("drained snapshot incomplete: %+v", drained)
	}
	if drained.Outstanding != 0 {
		t.Fatalf("drain left outstanding children unaccounted: %+v", drained)
	}
	if results == 0 {
		t.Fatalf("audit stream archived no result rows for the campaign")
	}
}

// TestCampaignThousandPointWarmSweep is the PR's acceptance test: a
// 1,000-point same-shape seed sweep through the live API must (1) sustain a
// warm-pool hit rate >= 90%, (2) produce child results bit-identical to
// direct facade runs of sampled points, and (3) leave room for a concurrent
// high-priority interactive job to be admitted — not shed — while the sweep
// saturates the queue (and low-priority traffic IS shed).
//
// Child jobs finish in microseconds here, so the contended phase is staged
// deterministically: two endless interactive jobs pin both workers, the sweep
// fills the low class to its limit behind them (campaign admission pumps
// synchronously), admission is probed against the provably saturated queue,
// and only then are the workers released. CI runs this test in a dedicated
// step; -short skips it.
func TestCampaignThousandPointWarmSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("1,000-point sweep is not a -short test")
	}

	_, ts := newTestServer(t, serve.Options{
		Workers:    2,
		QueueDepth: 4,
		PoolSize:   2,
		RetainJobs: 1200,
	})

	// Pin both workers so the queue state below is deterministic.
	blockers := []serve.JobStatus{submit(t, ts, endlessJob()), submit(t, ts, endlessJob())}
	for _, b := range blockers {
		waitState(t, ts, b.ID, func(s string) bool { return s == serve.StateRunning })
	}

	seeds := make([]uint64, 1000)
	for i := range seeds {
		seeds[i] = uint64(i + 1)
	}
	base := campaignBase()
	base.Workloads[0].Blocks = 300
	st := submitCampaign(t, ts, &serve.CampaignRequest{
		Name:  "thousand",
		Base:  base,
		Axes:  campaign.Axes{Seeds: seeds},
		Quota: 32, // far beyond the queue: the sweep saturates admission
	})
	if st.Points != 1000 || st.Shapes != 1 {
		t.Fatalf("expansion: %+v, want 1000 points of 1 shape", st)
	}
	// Campaign admission pumps children synchronously: with both workers
	// pinned, the low class now sits at its limit (3 of the 4-deep queue).
	if h := getHealth(t, ts); h.QueueDepth != 3 {
		t.Fatalf("queue depth %d after campaign admission, want the low-class limit 3", h.QueueDepth)
	}

	// Low-priority interactive traffic is shed while the sweep holds the
	// queue...
	low := quickJob()
	low.Priority = "low"
	resp := postJSON(t, ts.URL+"/jobs", low)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("low job against the saturated queue: HTTP %d, want 503", resp.StatusCode)
	}

	// ...but a high-priority job lands in its reserved headroom — and the
	// headroom itself is bounded.
	high := &serve.JobRequest{
		Preset:      "westmere", // a different shape than the sweep's
		Workloads:   []serve.WorkloadSpec{{Name: "blackscholes", Threads: 1, Blocks: 40}},
		HostThreads: 2,
		Priority:    "high",
	}
	// With 3 low slots held and a high limit of capacity+1 = 5, exactly two
	// high jobs fit before the headroom is exhausted.
	hst := submit(t, ts, high)  // fails the test on anything but 202
	hst2 := submit(t, ts, high) // second one takes the last slot
	resp = postJSON(t, ts.URL+"/jobs", high)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("third high job: HTTP %d, want 503 (headroom exhausted)", resp.StatusCode)
	}

	// Release the workers; the high-priority jobs outrank every queued child.
	for _, b := range blockers {
		cancelJob(t, ts, b.ID).Body.Close()
	}
	for _, id := range []string{hst.ID, hst2.ID} {
		if fin := waitState(t, ts, id, terminal); fin.State != serve.StateSucceeded {
			t.Fatalf("high-priority job %s ended %q (%s)", id, fin.State, fin.Error)
		}
	}

	fin := waitCampaign(t, ts, st.ID, 10*time.Minute)
	if fin.State != "done" || fin.Done != 1000 || fin.Outstanding != 0 {
		t.Fatalf("sweep ended %+v", fin)
	}

	detail := getCampaign(t, ts, st.ID)
	if detail.Summary == nil || detail.Summary.Outcomes["succeeded"] != 1000 {
		t.Fatalf("outcomes: %+v", detail.Summary)
	}
	if detail.Summary.Latency == nil || detail.Summary.Latency.Count != 1000 {
		t.Fatalf("latency: %+v", detail.Summary.Latency)
	}
	if detail.Summary.Latency.P50 > detail.Summary.Latency.P99 ||
		detail.Summary.Latency.P99 > detail.Summary.Latency.Max {
		t.Fatalf("latency percentiles out of order: %+v", detail.Summary.Latency)
	}
	var seedCurve *campaign.Curve
	for i := range detail.Summary.Curves {
		if detail.Summary.Curves[i].Axis == "seed" {
			seedCurve = &detail.Summary.Curves[i]
		}
	}
	if seedCurve == nil || len(seedCurve.Points) != 1000 {
		t.Fatalf("seed curve incomplete: %d points", len(seedCurve.Points))
	}
	if len(detail.Children) != 1000 {
		t.Fatalf("children: %d", len(detail.Children))
	}

	// Acceptance: warm-pool hit rate >= 90% across the sweep. With one shape
	// and two workers, only the first construction wave (and the westmere
	// interactive job) can miss.
	h := getHealth(t, ts)
	if lookups := h.Pool.Hits + h.Pool.Misses; lookups == 0 || float64(h.Pool.Hits) < 0.9*float64(lookups) {
		t.Fatalf("warm-pool hit rate %d/%d < 0.90: %+v", h.Pool.Hits, lookups, h.Pool)
	}

	// Acceptance: sampled child results are bit-identical to fresh facade
	// runs of the same point (seed = point index + 1).
	for _, seed := range []uint64{1, 137, 777, 1000} {
		child := detail.Children[seed-1]
		got := getResult(t, ts, child)
		if !got.Reused && seed > 4 {
			// Not fatal — but with hit rate >= 90% the sampled points should
			// overwhelmingly be warm servings; the identity check below is the
			// real assertion that warm == fresh.
			t.Logf("sampled seed %d served cold", seed)
		}
		want := facadeMetrics(t, 0, seed, 300)
		if !sameMetrics(got.Metrics, want) {
			t.Fatalf("seed %d diverged from facade:\n child:  %+v\n facade: %+v", seed, got.Metrics, want)
		}
	}

	// The result store's campaign view agrees with retention accounting.
	rows := getResults(t, ts, "?campaign="+st.ID+"&limit="+strconv.Itoa(2048))
	if len(rows) != 1000 {
		t.Fatalf("campaign result rows: %d, want 1000", len(rows))
	}
	reused := 0
	for _, r := range rows {
		if r.Reused {
			reused++
		}
	}
	if reused < 900 {
		t.Fatalf("only %d/1000 children served warm", reused)
	}
}
