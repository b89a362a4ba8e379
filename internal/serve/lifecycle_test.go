package serve_test

// HTTP-level tests for the job lifecycle: the retention and result-store
// windows at their edges, job numbering across refused campaign releases, and
// the ordering of a finished job's row against its visible terminal state.

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"zsim/internal/campaign"
	"zsim/internal/serve"
)

// httpCode GETs path and returns the response status.
func httpCode(t *testing.T, ts *httptest.Server, path string) int {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// TestRetentionStoreWindows runs n quick jobs back to back and checks, for
// each job, what GET /jobs/{id} and /jobs/{id}/result answer (200 retained,
// 410 evicted but still in /results, 404 gone), plus the /results length and
// the /healthz and /metrics counters at the window edges.
func TestRetentionStoreWindows(t *testing.T) {
	cases := []struct {
		name              string
		retain, storeSize int
		jobs              int
		codes             []int // per job, oldest first
		resultJobs        []int // 1-based job ordinals in /results, newest first
		storeEvicted      uint64
		jobsRetained      int
		jobsEvicted       uint64
	}{
		{
			name: "unbounded retention", retain: -1, storeSize: 2, jobs: 4,
			codes:      []int{200, 200, 200, 200},
			resultJobs: []int{4, 3}, storeEvicted: 2, jobsRetained: 4, jobsEvicted: 0,
		},
		{
			name: "retention wider than store", retain: 3, storeSize: 2, jobs: 5,
			codes:      []int{404, 404, 200, 200, 200},
			resultJobs: []int{5, 4}, storeEvicted: 3, jobsRetained: 3, jobsEvicted: 2,
		},
		{
			name: "store wider than retention", retain: 2, storeSize: 3, jobs: 5,
			codes:      []int{404, 404, 410, 200, 200},
			resultJobs: []int{5, 4, 3}, storeEvicted: 2, jobsRetained: 2, jobsEvicted: 3,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, ts := newTestServer(t, serve.Options{Workers: 1, RetainJobs: tc.retain, StoreSize: tc.storeSize})
			var ids []string
			for i := 0; i < tc.jobs; i++ {
				st := submit(t, ts, quickJob())
				if fin := waitState(t, ts, st.ID, terminal); fin.State != serve.StateSucceeded {
					t.Fatalf("job %s ended %q (%s)", st.ID, fin.State, fin.Error)
				}
				ids = append(ids, st.ID)
			}
			// Every row is filed once the last job is seen terminal.
			deadline := time.Now().Add(10 * time.Second)
			for scrapeMetrics(t, ts)["zsimd_results_total"] != float64(tc.jobs) {
				if time.Now().After(deadline) {
					t.Fatalf("results_total never reached %d", tc.jobs)
				}
				time.Sleep(time.Millisecond)
			}

			for i, id := range ids {
				for _, path := range []string{"/jobs/" + id, "/jobs/" + id + "/result"} {
					if got := httpCode(t, ts, path); got != tc.codes[i] {
						t.Errorf("GET %s: HTTP %d, want %d", path, got, tc.codes[i])
					}
				}
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
			if h.StoreRows != len(tc.resultJobs) || h.StoreEvicted != tc.storeEvicted ||
				h.JobsRetained != tc.jobsRetained || h.JobsEvicted != tc.jobsEvicted {
				t.Errorf("healthz: rows %d evicted %d / jobs retained %d evicted %d, want %d %d / %d %d",
					h.StoreRows, h.StoreEvicted, h.JobsRetained, h.JobsEvicted,
					len(tc.resultJobs), tc.storeEvicted, tc.jobsRetained, tc.jobsEvicted)
			}
			m := scrapeMetrics(t, ts)
			if got, want := m["zsimd_results_total"], sumByPrefix(m, "zsimd_jobs_total{"); got != want {
				t.Errorf("zsimd_results_total = %v, Σ zsimd_jobs_total = %v", got, want)
			}
			if m["zsimd_store_rows"] != float64(h.StoreRows) ||
				m["zsimd_store_evictions_total"] != float64(h.StoreEvicted) ||
				m["zsimd_jobs_evicted_total"] != float64(h.JobsEvicted) {
				t.Errorf("metrics disagree with healthz: rows %v evictions %v jobs evicted %v",
					m["zsimd_store_rows"], m["zsimd_store_evictions_total"], m["zsimd_jobs_evicted_total"])
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
