package serve_test

// HTTP-level tests for the job lifecycle: the one retention window at its
// edges, job numbering across refused campaign releases, and the ordering of
// a finished job's row against its visible terminal state.

import (
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"zsim/internal/campaign"
	"zsim/internal/serve"
)

// TestRetentionStoreWindows finishes a one-point campaign (its child is
// job-1) and then four quick jobs, and checks for each job what GET
// /jobs/{id}, GET /jobs/{id}/result and POST /jobs/{id}/cancel answer: 200,
// 200 and 409 while it is among the newest RetainJobs finished jobs, 410 on
// all three after that, in the body form an evicted campaign gets. A number
// never issued answers 404 on all three. /results holds exactly the retained
// jobs' rows, and /healthz and /metrics count the same window.
func TestRetentionStoreWindows(t *testing.T) {
	cases := []struct {
		name         string
		retain       int
		evicted      int   // the oldest this many of the five jobs are evicted
		resultJobs   []int // 1-based job ordinals in /results, newest first
		jobsRetained int
	}{
		{name: "unbounded retention", retain: -1, evicted: 0, resultJobs: []int{5, 4, 3, 2, 1}, jobsRetained: 5},
		{name: "retention of three", retain: 3, evicted: 2, resultJobs: []int{5, 4, 3}, jobsRetained: 3},
		{name: "retention of two", retain: 2, evicted: 3, resultJobs: []int{5, 4}, jobsRetained: 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, ts := newTestServer(t, serve.Options{Workers: 1, RetainJobs: tc.retain})
			base := campaignBase()
			base.Workloads[0].Blocks = 20
			camp := submitCampaign(t, ts, &serve.CampaignRequest{Base: base, Axes: campaign.Axes{Seeds: []uint64{1}}})
			if fin := waitCampaign(t, ts, camp.ID, time.Minute); fin.State != "done" {
				t.Fatalf("campaign %s ended %+v", camp.ID, fin)
			}
			ids := []string{"job-1"}
			for len(ids) < 5 {
				st := submit(t, ts, quickJob())
				if fin := waitState(t, ts, st.ID, terminal); fin.State != serve.StateSucceeded {
					t.Fatalf("job %s ended %q (%s)", st.ID, fin.State, fin.Error)
				}
				ids = append(ids, st.ID)
			}
			if ids[4] != "job-5" {
				t.Fatalf("job IDs %v, want job-1 … job-5", ids)
			}

			probe := func(id string) [3]int {
				status, _ := rawGet(t, ts.URL+"/jobs/"+id)
				result, _ := rawGet(t, ts.URL+"/jobs/"+id+"/result")
				resp := postJSON(t, ts.URL+"/jobs/"+id+"/cancel", nil)
				resp.Body.Close()
				return [3]int{status, result, resp.StatusCode}
			}
			for i, id := range ids {
				want := [3]int{200, 200, 409}
				if i < tc.evicted {
					want = [3]int{410, 410, 410}
					if _, body := rawGet(t, ts.URL+"/jobs/"+id); !strings.Contains(string(body),
						"job "+id+" is no longer retained; its records are in the audit log") {
						t.Errorf("GET /jobs/%s: 410 body %s is not the evicted-campaign form", id, body)
					}
				}
				if got := probe(id); got != want {
					t.Errorf("%s: status/result/cancel answer %v, want %v", id, got, want)
				}
			}
			if got := probe("job-99"); got != [3]int{404, 404, 404} {
				t.Errorf("job-99: status/result/cancel answer %v, want 404 on all three", got)
			}
			if code, _ := rawGet(t, ts.URL+"/campaigns/"+camp.ID); code != http.StatusOK {
				t.Errorf("GET /campaigns/%s: HTTP %d, want 200 (retained)", camp.ID, code)
			}

			rows := getResults(t, ts, "")
			if len(rows) != len(tc.resultJobs) {
				t.Fatalf("/results has %d rows, want %d", len(rows), len(tc.resultJobs))
			}
			for i, n := range tc.resultJobs {
				if rows[i].Job != ids[n-1] {
					t.Errorf("/results[%d] = %s, want %s", i, rows[i].Job, ids[n-1])
				}
			}

			h := getHealth(t, ts)
			if h.JobsRetained != tc.jobsRetained || h.JobsEvicted != uint64(tc.evicted) {
				t.Errorf("healthz: jobs retained %d evicted %d, want %d %d",
					h.JobsRetained, h.JobsEvicted, tc.jobsRetained, tc.evicted)
			}
			m := scrapeMetrics(t, ts)
			if jobs, lat := sumByPrefix(m, "zsimd_jobs_total{"), sumByPrefix(m, "zsimd_job_latency_seconds_count"); jobs != 5 || lat != 5 {
				t.Errorf("Σ zsimd_jobs_total = %v, Σ zsimd_job_latency_seconds_count = %v, want 5", jobs, lat)
			}
			if m["zsimd_jobs_evicted_total"] != float64(h.JobsEvicted) {
				t.Errorf("zsimd_jobs_evicted_total = %v, healthz jobsEvicted = %d", m["zsimd_jobs_evicted_total"], h.JobsEvicted)
			}
		})
	}
}

// TestCampaignChildIDsContiguous: a campaign whose releases are refused by the
// low-class admission limit (3 of a 4-deep queue) must not burn job IDs on
// the refusals — no shed record names them, so the numbering has no gaps.
func TestCampaignChildIDsContiguous(t *testing.T) {
	_, ts := newTestServer(t, serve.Options{Workers: 1, QueueDepth: 4})

	base := campaignBase()
	base.Workloads[0].Blocks = 50
	st := submitCampaign(t, ts, &serve.CampaignRequest{
		Base:  base,
		Axes:  campaign.Axes{Seeds: []uint64{1, 2, 3, 4, 5, 6, 7, 8}},
		Quota: 8,
	})
	if fin := waitCampaign(t, ts, st.ID, 2*time.Minute); fin.State != "done" {
		t.Fatalf("campaign ended %+v", fin)
	}
	children := getCampaign(t, ts, st.ID).Children
	if len(children) != 8 {
		t.Fatalf("children: %v", children)
	}
	for i, id := range children {
		if want := fmt.Sprintf("job-%d", i+1); id != want {
			t.Fatalf("children = %v, want job-1 … job-8", children)
		}
	}
}

// TestRowFiledBeforeTerminalState: a job's result row is filed before its
// terminal state is visible, so a client that has just seen the job finish
// always finds exactly one row for it in /results.
func TestRowFiledBeforeTerminalState(t *testing.T) {
	_, ts := newTestServer(t, serve.Options{Workers: 1})
	for i := 0; i < 20; i++ {
		st := submit(t, ts, quickJob())
		for deadline := time.Now().Add(60 * time.Second); !terminal(st.State); {
			if time.Now().After(deadline) {
				t.Fatalf("job %s stuck in %q", st.ID, st.State)
			}
			st = getStatus(t, ts, st.ID)
		}
		if rows := getResults(t, ts, "?job="+st.ID); len(rows) != 1 {
			t.Fatalf("job %s is %s but /results has %d rows for it", st.ID, st.State, len(rows))
		}
	}
}
