package serve_test

// HTTP-level tests for the scheduling/retention surfaces: bounded job
// retention with 410 Gone for evicted IDs, the GET /results query view,
// priority-class admission with queue-derived Retry-After, startup prewarm,
// and pool idle-expiry through the server's janitor.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"zsim"
	"zsim/internal/campaign"
	"zsim/internal/serve"
)

// healthSnap decodes the /healthz fields these tests assert on.
type healthSnap struct {
	Status        string `json:"status"`
	QueueDepth    int    `json:"queueDepth"`
	QueueCapacity int    `json:"queueCapacity"`
	Pool          struct {
		Occupancy int    `json:"occupancy"`
		Shapes    int    `json:"shapes"`
		Hits      uint64 `json:"hits"`
		Misses    uint64 `json:"misses"`
		Returns   uint64 `json:"returns"`
		Discards  uint64 `json:"discards"`
		Prewarmed uint64 `json:"prewarmed"`
		Expiries  uint64 `json:"expiries"`
	} `json:"pool"`
	Campaigns    int    `json:"campaigns"`
	JobsRetained int    `json:"jobsRetained"`
	JobsEvicted  uint64 `json:"jobsEvicted"`
}

func getHealth(t *testing.T, ts *httptest.Server) healthSnap {
	t.Helper()
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h healthSnap
	decodeInto(t, resp, &h)
	if h.Status != "ok" {
		t.Fatalf("healthz status %q", h.Status)
	}
	return h
}

func getResults(t *testing.T, ts *httptest.Server, query string) []serve.ResultRow {
	t.Helper()
	resp, err := http.Get(ts.URL + "/results" + query)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		t.Fatalf("GET /results%s: HTTP %d", query, resp.StatusCode)
	}
	var rows []serve.ResultRow
	decodeInto(t, resp, &rows)
	return rows
}

// TestJobRetentionEviction: terminal jobs beyond RetainJobs leave GET
// /jobs/{id}, which answers 410 Gone pointing at the audit log, and /results;
// each job's one "finish" audit record keeps its row; /healthz accounts for
// the eviction.
func TestJobRetentionEviction(t *testing.T) {
	audit := &lockedBuffer{}
	s, ts := newTestServer(t, serve.Options{Workers: 1, RetainJobs: 2, Audit: audit})

	var ids []string
	for i := 0; i < 5; i++ {
		st := submit(t, ts, quickJob())
		if fin := waitState(t, ts, st.ID, terminal); fin.State != serve.StateSucceeded {
			t.Fatalf("job %s ended %q (%s)", st.ID, fin.State, fin.Error)
		}
		ids = append(ids, st.ID)
	}

	// The oldest three are evicted; status and result answer 410 Gone.
	for _, url := range []string{"/jobs/" + ids[0], "/jobs/" + ids[0] + "/result"} {
		resp, err := http.Get(ts.URL + url)
		if err != nil {
			t.Fatal(err)
		}
		body := new(bytes.Buffer)
		body.ReadFrom(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusGone {
			t.Fatalf("GET %s: HTTP %d, want 410", url, resp.StatusCode)
		}
		if !strings.Contains(body.String(), "no longer retained") || !strings.Contains(body.String(), "audit log") {
			t.Fatalf("410 body should point at the audit log: %s", body)
		}
	}
	// Recent jobs stay fully addressable.
	if st := getStatus(t, ts, ids[4]); st.State != serve.StateSucceeded {
		t.Fatalf("retained job state %q", st.State)
	}
	// Never-admitted IDs are a plain 404, not 410.
	resp, err := http.Get(ts.URL + "/jobs/job-999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job: HTTP %d, want 404", resp.StatusCode)
	}

	// The evicted job's row has left /results with it.
	if rows := getResults(t, ts, "?job="+ids[0]); len(rows) != 0 {
		t.Fatalf("evicted job's result row still in /results: %+v", rows)
	}

	// Listings and health reflect the retention bound.
	listResp, err := http.Get(ts.URL + "/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var list []serve.JobStatus
	decodeInto(t, listResp, &list)
	if len(list) != 2 {
		t.Fatalf("GET /jobs lists %d jobs, want the 2 retained", len(list))
	}
	h := getHealth(t, ts)
	if h.JobsRetained != 2 || h.JobsEvicted != 3 {
		t.Fatalf("health retention counters: %+v", h)
	}

	// The audit log keeps every job's row, the evicted ones' included, on its
	// one terminal record.
	s.Shutdown(time.Second) // flushes the audit log
	rows := finishRows(t, audit.String())
	for _, id := range ids {
		if r, ok := rows[id]; !ok || r.Job != id || r.Outcome != serve.StateSucceeded || r.Instructions == 0 {
			t.Fatalf("%s: finish record row %+v (present %v)", id, r, ok)
		}
	}
}

// TestResultsQuerySurface exercises GET /results filters over a mixed history.
func TestResultsQuerySurface(t *testing.T) {
	_, ts := newTestServer(t, serve.Options{Workers: 1})

	for i := 0; i < 2; i++ {
		st := submit(t, ts, quickJob())
		if fin := waitState(t, ts, st.ID, terminal); fin.State != serve.StateSucceeded {
			t.Fatalf("job ended %q (%s)", fin.State, fin.Error)
		}
	}
	// A deadline-exceeded job contributes a failed row of the same shape.
	doomed := endlessJob()
	doomed.TimeoutMillis = 100
	st := submit(t, ts, doomed)
	if fin := waitState(t, ts, st.ID, terminal); fin.State != serve.StateFailed {
		t.Fatalf("doomed job ended %q, want failed", fin.State)
	}

	all := getResults(t, ts, "")
	if len(all) != 3 {
		t.Fatalf("got %d rows, want 3", len(all))
	}
	// Newest first: the failed job finished last.
	if all[0].Job != st.ID || all[0].Outcome != serve.StateFailed {
		t.Fatalf("newest row: %+v", all[0])
	}
	if all[0].Seconds <= 0 || all[1].Cycles == 0 || all[1].Instructions == 0 {
		t.Fatalf("rows missing latency/metrics: %+v", all)
	}
	if got := getResults(t, ts, "?outcome=succeeded"); len(got) != 2 {
		t.Fatalf("succeeded filter: %d rows", len(got))
	}
	if got := getResults(t, ts, "?outcome=failed"); len(got) != 1 {
		t.Fatalf("failed filter: %d rows", len(got))
	}
	// All three jobs share the default small shape.
	if all[0].Shape == "" || all[0].Shape == "none" {
		t.Fatalf("failed row lost its shape: %+v", all[0])
	}
	if got := getResults(t, ts, "?shape="+all[0].Shape); len(got) != 3 {
		t.Fatalf("shape filter: %d rows, want 3", len(got))
	}
	if got := getResults(t, ts, "?limit=1"); len(got) != 1 || got[0].Job != st.ID {
		t.Fatalf("limit=1: %+v", got)
	}
	resp, err := http.Get(ts.URL + "/results?limit=bogus")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad limit: HTTP %d, want 400", resp.StatusCode)
	}
}

// TestPriorityAdmission: with the queue full for normal jobs, a high-priority
// submission still lands in its reserved headroom, and sheds carry a
// Retry-After derived from queue state.
func TestPriorityAdmission(t *testing.T) {
	_, ts := newTestServer(t, serve.Options{Workers: 1, QueueDepth: 1})

	running := submit(t, ts, endlessJob())
	waitState(t, ts, running.ID, func(s string) bool { return s == serve.StateRunning })
	queued := submit(t, ts, quickJob()) // fills the queue
	if queued.Priority != "normal" {
		t.Fatalf("default priority %q, want normal", queued.Priority)
	}

	// Normal and low submissions shed with a queue-derived Retry-After.
	for _, pri := range []string{"", "low"} {
		req := quickJob()
		req.Priority = pri
		resp := postJSON(t, ts.URL+"/jobs", req)
		retry := resp.Header.Get("Retry-After")
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("priority %q: HTTP %d, want 503", pri, resp.StatusCode)
		}
		secs, err := strconv.Atoi(retry)
		if err != nil || secs < 1 || secs > 60 {
			t.Fatalf("Retry-After %q not a sane queue-derived hint", retry)
		}
	}

	// High priority gets the reserved slot...
	high := quickJob()
	high.Priority = "high"
	hst := submit(t, ts, high)
	if hst.Priority != "high" {
		t.Fatalf("high job reported priority %q", hst.Priority)
	}
	// ...exactly once: the headroom is bounded too.
	resp := postJSON(t, ts.URL+"/jobs", high)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("second high job: HTTP %d, want 503", resp.StatusCode)
	}

	// Bad priority values are a 400, not a shed.
	bad := quickJob()
	bad.Priority = "urgent"
	resp = postJSON(t, ts.URL+"/jobs", bad)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad priority: HTTP %d, want 400", resp.StatusCode)
	}

	// Unblock the worker; the queued jobs drain and succeed.
	cancelJob(t, ts, running.ID).Body.Close()
	for _, id := range []string{queued.ID, hst.ID} {
		if fin := waitState(t, ts, id, terminal); fin.State != serve.StateSucceeded {
			t.Fatalf("job %s ended %q (%s)", id, fin.State, fin.Error)
		}
	}
}

// TestServerPrewarm: Prewarm parks warm simulators before any job arrives, so
// the first job of a prewarmed shape is already a pool hit. The job's host
// threads are part of its shape.
func TestServerPrewarm(t *testing.T) {
	s, ts := newTestServer(t, serve.Options{Workers: 1, PoolSize: 2})

	cfg := zsim.SmallConfig()
	cfg.HostThreads = detJob().HostThreads
	n, err := s.Prewarm([]*zsim.Config{cfg})
	if err != nil || n != 1 {
		t.Fatalf("Prewarm = %d, %v", n, err)
	}
	h := getHealth(t, ts)
	if h.Pool.Occupancy != 1 || h.Pool.Prewarmed != 1 || h.Pool.Shapes != 1 {
		t.Fatalf("pool after prewarm: %+v", h.Pool)
	}

	res := runToSuccess(t, ts, detJob())
	if !res.Reused {
		t.Fatalf("first job of a prewarmed shape was not served warm")
	}
	h = getHealth(t, ts)
	if h.Pool.Hits != 1 || h.Pool.Misses != 0 {
		t.Fatalf("pool counters after warm first job: %+v", h.Pool)
	}

	// Invalid configs fail the prewarm instead of being silently skipped.
	bad := zsim.SmallConfig()
	bad.NumCores = -1
	if _, err := s.Prewarm([]*zsim.Config{bad}); err == nil {
		t.Fatalf("Prewarm accepted an invalid config")
	}
}

// TestPoolIdleExpiryServer: a pooled simulator whose shape stops arriving is
// expired by the janitor — occupancy returns to zero, the expiry is counted,
// and the next same-shape job constructs fresh.
func TestPoolIdleExpiryServer(t *testing.T) {
	_, ts := newTestServer(t, serve.Options{Workers: 1, PoolSize: 2, PoolIdleExpiry: 40 * time.Millisecond})

	first := runToSuccess(t, ts, detJob())
	if first.Reused {
		t.Fatalf("first job cannot be warm")
	}

	deadline := time.Now().Add(10 * time.Second)
	for {
		h := getHealth(t, ts)
		if h.Pool.Occupancy == 0 && h.Pool.Expiries >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("janitor never expired the idle simulator: %+v", h.Pool)
		}
		time.Sleep(5 * time.Millisecond)
	}

	second := runToSuccess(t, ts, detJob())
	if second.Reused {
		t.Fatalf("job after expiry was served from a supposedly-expired pool")
	}
	if !sameMetrics(first.Metrics, second.Metrics) {
		t.Fatalf("post-expiry rerun diverged:\n a: %+v\n b: %+v", first.Metrics, second.Metrics)
	}
	if h := getHealth(t, ts); h.Pool.Misses != 2 {
		t.Fatalf("pool misses = %d, want 2 (both constructions cold)", h.Pool.Misses)
	}
}

// rawGet returns the status code and body of GET url.
func rawGet(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// finishRows returns the result row of each job's terminal "finish" audit
// record by job ID. It fails the test if a job has more than one, if one
// carries no row, or if the log still holds a separate "result" event.
func finishRows(t *testing.T, audit string) map[string]serve.ResultRow {
	t.Helper()
	rows := map[string]serve.ResultRow{}
	sc := bufio.NewScanner(strings.NewReader(audit))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var rec struct {
			Event, Job string
			Result     *serve.ResultRow
		}
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("bad audit line %q: %v", sc.Text(), err)
		}
		switch rec.Event {
		case "result":
			t.Fatalf("separate result record: %s", sc.Text())
		case "finish":
			if _, dup := rows[rec.Job]; dup || rec.Result == nil {
				t.Fatalf("%s: second finish record, or one without a row: %s", rec.Job, sc.Text())
			}
			rows[rec.Job] = *rec.Result
		}
	}
	return rows
}

// campaignRecords indexes the "campaign" audit records by campaign ID: the
// details of the terminal ones (state done or cancelled), and the states of
// the others after the submission record.
func campaignRecords(t *testing.T, audit string) (terminal map[string][]string, other map[string][]string) {
	t.Helper()
	terminal, other = map[string][]string{}, map[string][]string{}
	sc := bufio.NewScanner(strings.NewReader(audit))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var rec struct{ Event, Job, State, Detail string }
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("bad audit line %q: %v", sc.Text(), err)
		}
		switch {
		case rec.Event != "campaign":
		case rec.State == "done" || rec.State == serve.StateCancelled:
			terminal[rec.Job] = append(terminal[rec.Job], rec.Detail)
		case !strings.HasPrefix(rec.Detail, "name="):
			other[rec.Job] = append(other[rec.Job], rec.State+" "+rec.Detail)
		}
	}
	return terminal, other
}

// checkTerminalRecord asserts that the campaign wrote exactly one terminal
// audit record and that its detail is, byte for byte, the final status GET
// /campaigns/{id} served (body, without the encoder's newline).
func checkTerminalRecord(t *testing.T, terminal map[string][]string, id string, body []byte) {
	t.Helper()
	recs := terminal[id]
	if len(recs) != 1 {
		t.Fatalf("%s: %d terminal campaign records, want 1: %q", id, len(recs), recs)
	}
	if got := strings.TrimSuffix(string(body), "\n"); recs[0] != got {
		t.Fatalf("%s: terminal record detail differs from GET:\n audit: %s\n GET:   %s", id, recs[0], got)
	}
	var st serve.CampaignStatus
	if err := json.Unmarshal([]byte(recs[0]), &st); err != nil || st.ID != id || st.Summary == nil || st.Finished.IsZero() {
		t.Fatalf("%s: terminal record detail is not the final status (%v): %s", id, err, recs[0])
	}
}

// TestCampaignOneTerminalRecord: a campaign that completes, one cancelled
// while idle (the low-priority share of the queue is full, so it has no child
// out) and one cancelled with children in flight each write exactly one
// terminal "campaign" audit record, whose detail is the final status GET
// reports. The busy campaign's cancel is recorded as "running", the state the
// API reports until its last child lands.
func TestCampaignOneTerminalRecord(t *testing.T) {
	audit := &lockedBuffer{}
	s, ts := newTestServer(t, serve.Options{Workers: 1, QueueDepth: 4, Audit: audit})

	quick := campaignBase()
	quick.Workloads[0].Blocks = 20
	done := submitCampaign(t, ts, &serve.CampaignRequest{Base: quick, Axes: campaign.Axes{Seeds: []uint64{1, 2}}})
	if fin := waitCampaign(t, ts, done.ID, time.Minute); fin.State != "done" {
		t.Fatalf("quick campaign ended %+v", fin)
	}

	// Two endless children are out (one running, one queued), and two
	// high-priority endless jobs queue behind them: the queue holds at least
	// 3 of 4 slots, the low-priority limit, so the next campaign gets none.
	endless := campaignBase()
	endless.Workloads[0].Blocks = 1 << 30
	busy := submitCampaign(t, ts, &serve.CampaignRequest{Base: endless, Axes: campaign.Axes{Seeds: []uint64{1, 2, 3}}, Quota: 2})
	if busy.Outstanding != 2 {
		t.Fatalf("busy campaign admitted with %d children out, want 2", busy.Outstanding)
	}
	var blockers []string
	for i := 0; i < 2; i++ {
		req := endlessJob()
		req.Priority = "high"
		blockers = append(blockers, submit(t, ts, req).ID)
	}
	idle := submitCampaign(t, ts, &serve.CampaignRequest{Base: quick, Axes: campaign.Axes{Seeds: []uint64{1, 2}}})
	if idle.Released != 0 || idle.Outstanding != 0 {
		t.Fatalf("idle campaign got children: %+v", idle)
	}

	var st serve.CampaignStatus
	resp := postJSON(t, ts.URL+"/campaigns/"+idle.ID+"/cancel", nil)
	if decodeInto(t, resp, &st); resp.StatusCode != http.StatusAccepted || st.State != serve.StateCancelled {
		t.Fatalf("idle cancel: HTTP %d, %+v", resp.StatusCode, st)
	}
	resp = postJSON(t, ts.URL+"/campaigns/"+busy.ID+"/cancel", nil)
	if decodeInto(t, resp, &st); resp.StatusCode != http.StatusAccepted || st.State != serve.StateRunning || st.Outstanding == 0 {
		t.Fatalf("busy cancel: HTTP %d, %+v", resp.StatusCode, st)
	}
	for _, id := range blockers {
		cancelJob(t, ts, id).Body.Close()
	}
	if fin := waitCampaign(t, ts, busy.ID, time.Minute); fin.State != serve.StateCancelled || fin.Outstanding != 0 {
		t.Fatalf("busy campaign settled as %+v", fin)
	}

	bodies := map[string][]byte{}
	for _, id := range []string{done.ID, idle.ID, busy.ID} {
		code, body := rawGet(t, ts.URL+"/campaigns/"+id)
		if code != http.StatusOK {
			t.Fatalf("GET /campaigns/%s: HTTP %d", id, code)
		}
		bodies[id] = body
	}
	s.Shutdown(time.Second) // flushes the audit log
	terminal, other := campaignRecords(t, audit.String())
	for id, body := range bodies {
		checkTerminalRecord(t, terminal, id, body)
	}
	if got := other[busy.ID]; len(got) != 1 || got[0] != "running cancel requested" {
		t.Fatalf("busy campaign's cancel records: %q", got)
	}
	if got := other[idle.ID]; len(got) != 0 {
		t.Fatalf("idle campaign wrote non-terminal records after submission: %q", got)
	}
}

// TestCampaignRetentionEviction: finished campaigns share the jobs' retention
// bound. The newest RetainJobs stay addressable with the status of their
// finish edge; an older one answers 410 pointing at the audit log, where its
// terminal record and its children's rows stay; an ID never admitted answers
// 404; a finished campaign refuses a second cancel with 409.
func TestCampaignRetentionEviction(t *testing.T) {
	audit := &lockedBuffer{}
	s, ts := newTestServer(t, serve.Options{Workers: 1, RetainJobs: 2, Audit: audit})

	base := campaignBase()
	base.Workloads[0].Blocks = 20
	var ids []string
	for i := 0; i < 3; i++ {
		st := submitCampaign(t, ts, &serve.CampaignRequest{Base: base, Axes: campaign.Axes{Seeds: []uint64{1, 2}}})
		if fin := waitCampaign(t, ts, st.ID, time.Minute); fin.State != "done" {
			t.Fatalf("campaign %s ended %+v", st.ID, fin)
		}
		ids = append(ids, st.ID)
	}

	evicted := ids[0]
	for _, probe := range []func() (int, []byte){
		func() (int, []byte) { return rawGet(t, ts.URL+"/campaigns/"+evicted) },
		func() (int, []byte) {
			resp := postJSON(t, ts.URL+"/campaigns/"+evicted+"/cancel", nil)
			defer resp.Body.Close()
			body, _ := io.ReadAll(resp.Body)
			return resp.StatusCode, body
		},
	} {
		if code, body := probe(); code != http.StatusGone ||
			!bytes.Contains(body, []byte("campaign "+evicted+" is no longer retained; its records are in the audit log")) {
			t.Fatalf("evicted campaign: HTTP %d %s, want 410 naming the audit log", code, body)
		}
	}
	for _, probe := range []func() int{
		func() int { code, _ := rawGet(t, ts.URL+"/campaigns/campaign-999"); return code },
		func() int {
			resp := postJSON(t, ts.URL+"/campaigns/campaign-999/cancel", nil)
			resp.Body.Close()
			return resp.StatusCode
		},
	} {
		if code := probe(); code != http.StatusNotFound {
			t.Fatalf("never-admitted campaign: HTTP %d, want 404", code)
		}
	}
	resp := postJSON(t, ts.URL+"/campaigns/"+ids[2]+"/cancel", nil)
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("cancel of a finished campaign: HTTP %d, want 409", resp.StatusCode)
	}

	var list []serve.CampaignStatus
	listResp, err := http.Get(ts.URL + "/campaigns")
	if err != nil {
		t.Fatal(err)
	}
	decodeInto(t, listResp, &list)
	if len(list) != 2 || list[0].ID != ids[1] || list[1].ID != ids[2] || list[0].Summary != nil {
		t.Fatalf("GET /campaigns lists %+v, want %v without detail", list, ids[1:])
	}
	if h := getHealth(t, ts); h.Campaigns != 2 {
		t.Fatalf("healthz counts %d campaigns, want the 2 retained", h.Campaigns)
	}
	if m := scrapeMetrics(t, ts); m[`zsimd_campaigns{state="done"}`] != 2 || m["zsimd_campaign_points_done_total"] != 6 {
		t.Fatalf("campaign metrics after eviction: done gauge %v, points done %v",
			m[`zsimd_campaigns{state="done"}`], m["zsimd_campaign_points_done_total"])
	}

	bodies := map[string][]byte{}
	for _, id := range ids[1:] {
		_, bodies[id] = rawGet(t, ts.URL+"/campaigns/"+id)
	}
	s.Shutdown(time.Second) // flushes the audit log
	terminal, _ := campaignRecords(t, audit.String())
	for id, body := range bodies {
		checkTerminalRecord(t, terminal, id, body)
	}
	if len(terminal[evicted]) != 1 {
		t.Fatalf("evicted campaign's terminal records: %q", terminal[evicted])
	}
	children := 0
	for _, r := range finishRows(t, audit.String()) {
		if r.Campaign == evicted {
			children++
		}
	}
	if children != 2 {
		t.Fatalf("evicted campaign's rows in the audit log: %d, want 2", children)
	}
}
