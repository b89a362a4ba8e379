package serve

// Internal tests for the finished-job record: newest-first queries, the one
// retention window over the ring (with the 410/404 split it backs), and the
// /results filters.

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

func row(i int, campaign, outcome string) ResultRow {
	return ResultRow{
		Job:      fmt.Sprintf("job-%d", i),
		Campaign: campaign,
		Shape:    fmt.Sprintf("%016x", i%2),
		Outcome:  outcome,
		Seconds:  float64(i),
		Finished: time.Unix(int64(i), 0),
	}
}

// storeServer builds an idle server and admits and files one finished job per
// row, the way admit and finish do; the i-th row's job takes number i+1.
func storeServer(t *testing.T, opts Options, rows ...ResultRow) *Server {
	t.Helper()
	s := New(opts)
	t.Cleanup(func() { s.Shutdown(0) })
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, r := range rows {
		j := &job{id: r.Job, seq: i + 1, point: -1, req: &JobRequest{}, state: r.Outcome, result: &JobResult{}}
		j.row = r
		s.seq = j.seq
		s.jobs[j.id] = j
		s.file(j)
	}
	return s
}

func getCode(s *Server, path string) int {
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	return rec.Code
}

func TestStoreNewestFirst(t *testing.T) {
	var rows []ResultRow
	for i := 1; i <= 5; i++ {
		rows = append(rows, row(i, "", "succeeded"))
	}
	s := storeServer(t, Options{RetainJobs: 10}, rows...)
	got := s.results(resultFilter{})
	if len(got) != 5 {
		t.Fatalf("got %d rows", len(got))
	}
	for i, r := range got {
		want := fmt.Sprintf("job-%d", 5-i)
		if r.Job != want {
			t.Fatalf("row %d = %s, want %s", i, r.Job, want)
		}
	}
}

// TestStoreRingEviction: past RetainJobs the oldest jobs leave /results and
// the jobs map and answer 410; the newest RetainJobs stay fully addressable;
// an ID never issued answers 404.
func TestStoreRingEviction(t *testing.T) {
	var rows []ResultRow
	for i := 1; i <= 10; i++ {
		rows = append(rows, row(i, "", "succeeded"))
	}
	s := storeServer(t, Options{RetainJobs: 4}, rows...)
	s.mu.Lock()
	retained, evicted := s.retention()
	s.mu.Unlock()
	if retained != 4 || evicted != 6 {
		t.Fatalf("retention = %d jobs retained / %d evicted, want 4 / 6", retained, evicted)
	}
	got := s.results(resultFilter{})
	if len(got) != 4 {
		t.Fatalf("got %d rows", len(got))
	}
	// Only the 4 newest survive, newest first.
	for i, r := range got {
		want := fmt.Sprintf("job-%d", 10-i)
		if r.Job != want {
			t.Fatalf("row %d = %s, want %s", i, r.Job, want)
		}
	}
	for id, want := range map[string]int{"job-0": 404, "job-1": 410, "job-6": 410, "job-7": 200, "job-10": 200, "job-11": 404} {
		if code := getCode(s, "/jobs/"+id+"/result"); code != want {
			t.Fatalf("GET /jobs/%s/result: HTTP %d, want %d", id, code, want)
		}
	}
}

func TestStoreFilters(t *testing.T) {
	var rows []ResultRow
	for i := 0; i < 20; i++ {
		camp := ""
		if i%2 == 0 {
			camp = "campaign-1"
		}
		outcome := "succeeded"
		if i%5 == 0 {
			outcome = "failed"
		}
		rows = append(rows, row(i, camp, outcome))
	}
	s := storeServer(t, Options{}, rows...)
	if got := s.results(resultFilter{campaign: "campaign-1"}); len(got) != 10 {
		t.Fatalf("campaign filter: %d rows, want 10", len(got))
	}
	if got := s.results(resultFilter{outcome: "failed"}); len(got) != 4 {
		t.Fatalf("outcome filter: %d rows, want 4", len(got))
	}
	if got := s.results(resultFilter{campaign: "campaign-1", outcome: "failed"}); len(got) != 2 {
		t.Fatalf("combined filter: %d rows, want 2 (i = 0 and 10)", len(got))
	}
	if got := s.results(resultFilter{job: "job-7"}); len(got) != 1 || got[0].Job != "job-7" {
		t.Fatalf("job filter: %+v", got)
	}
	if got := s.results(resultFilter{shape: fmt.Sprintf("%016x", 1)}); len(got) != 10 {
		t.Fatalf("shape filter: %d rows, want 10", len(got))
	}
	if got := s.results(resultFilter{limit: 3}); len(got) != 3 || got[0].Job != "job-19" {
		t.Fatalf("limit: %d rows, first %s", len(got), got[0].Job)
	}
	if got := s.results(resultFilter{campaign: "no-such"}); len(got) != 0 {
		t.Fatalf("miss filter returned rows: %v", got)
	}
}

// TestStoreQueryAfterWrap: newest-first ordering must hold once the ring has
// dropped its oldest jobs.
func TestStoreQueryAfterWrap(t *testing.T) {
	var rows []ResultRow
	for i := 1; i <= 6; i++ {
		rows = append(rows, row(i, "", "succeeded"))
	}
	s := storeServer(t, Options{RetainJobs: 4}, rows...)
	got := s.results(resultFilter{limit: 2})
	if len(got) != 2 || got[0].Job != "job-6" || got[1].Job != "job-5" {
		t.Fatalf("post-wrap order: %+v", got)
	}
}
