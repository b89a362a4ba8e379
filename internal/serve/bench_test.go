package serve_test

// Serve-level throughput benchmark for the warm-simulator pool: the same
// stream of identical-shape jobs through a zsimd server, with pooling off
// (every job constructs a 64-core chip) and on (jobs after the first are
// served by a Reset warm simulator). Gate on the fresh/warm jobs/sec ratio,
// not absolute ns/op (1-vCPU CI host).

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"zsim/internal/campaign"
	"zsim/internal/serve"
)

// benchJob is a small job on a construction-dominated 64-core tiled shape —
// the shape mix BenchmarkJobThroughput uses at the library layer.
func benchJob() *serve.JobRequest {
	return &serve.JobRequest{
		Preset:      "tiled",
		Tiles:       16,
		CoreModel:   "ipc1",
		Workloads:   []serve.WorkloadSpec{{Name: "fluidanimate", Threads: 2, Blocks: 25}},
		HostThreads: 2,
		Seed:        7,
	}
}

func benchSubmit(b *testing.B, ts *httptest.Server, req *serve.JobRequest) string {
	b.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(req); err != nil {
		b.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/jobs", "application/json", &buf)
	if err != nil {
		b.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		b.Fatalf("submit: HTTP %d", resp.StatusCode)
	}
	var st serve.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		b.Fatal(err)
	}
	return st.ID
}

// benchWait polls the job's status until it succeeds and returns how many
// polls that took. Any reply but 200 fails the benchmark: a job the server
// has retired answers 410 and would never succeed.
func benchWait(b *testing.B, ts *httptest.Server, id string) int {
	b.Helper()
	for polls := 1; ; polls++ {
		resp, err := http.Get(ts.URL + "/jobs/" + id)
		if err != nil {
			b.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			resp.Body.Close()
			b.Fatalf("status of job %s: HTTP %d", id, resp.StatusCode)
		}
		var st serve.JobStatus
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			resp.Body.Close()
			b.Fatal(err)
		}
		resp.Body.Close()
		switch st.State {
		case serve.StateSucceeded:
			return polls
		case serve.StateFailed, serve.StateCancelled:
			b.Fatalf("job %s ended %q (%s)", id, st.State, st.Error)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// BenchmarkServeJobThroughput submits b.N jobs, then waits for each. The
// server retains every one of them, so none is retired before it is read.
// Each status poll allocates on the client side, and how many a job takes
// depends on timing: polls/op tells a move in allocs/op apart from polling.
func BenchmarkServeJobThroughput(b *testing.B) {
	run := func(b *testing.B, poolSize int) {
		srv := serve.New(serve.Options{Workers: 1, QueueDepth: b.N + 1, PoolSize: poolSize, RetainJobs: b.N + 1})
		ts := httptest.NewServer(srv)
		defer func() {
			srv.Shutdown(time.Minute)
			ts.Close()
		}()
		// One job off the clock: HTTP warm-up, and with pooling on it
		// stocks the pool so the timed stream measures steady state.
		benchWait(b, ts, benchSubmit(b, ts, benchJob()))
		b.ResetTimer()
		ids := make([]string, b.N)
		for i := range ids {
			ids[i] = benchSubmit(b, ts, benchJob())
		}
		polls := 0
		for _, id := range ids {
			polls += benchWait(b, ts, id)
		}
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "jobs/sec")
		b.ReportMetric(float64(polls)/float64(b.N), "polls/op")
	}
	b.Run("fresh", func(b *testing.B) { run(b, 0) })
	b.Run("warm", func(b *testing.B) { run(b, 2) })
}

// BenchmarkCampaignThroughput measures the campaign path end to end: one
// seed-sweep campaign of b.N same-shape points through POST /campaigns, the
// quota-paced pump, the worker pool and the result store, until the campaign
// reports done. This is the design-space-exploration serving rate; "warm" is
// the deployment configuration (children after the first reuse a pooled
// simulator), "fresh" constructs the 64-core chip for every point. Gate on
// the fresh/warm points/sec ratio, not absolute numbers.
func BenchmarkCampaignThroughput(b *testing.B) {
	run := func(b *testing.B, poolSize int) {
		srv := serve.New(serve.Options{
			Workers:           1,
			QueueDepth:        64,
			PoolSize:          poolSize,
			MaxCampaignPoints: b.N + 1,
		})
		ts := httptest.NewServer(srv)
		defer func() {
			srv.Shutdown(time.Minute)
			ts.Close()
		}()
		// One plain job off the clock: HTTP warm-up, pool stocking.
		benchWait(b, ts, benchSubmit(b, ts, benchJob()))

		seeds := make([]uint64, b.N)
		for i := range seeds {
			seeds[i] = uint64(i + 1)
		}
		b.ResetTimer()
		var buf bytes.Buffer
		if err := json.NewEncoder(&buf).Encode(&serve.CampaignRequest{
			Name:  "bench-sweep",
			Base:  *benchJob(),
			Axes:  campaign.Axes{Seeds: seeds},
			Quota: 32,
		}); err != nil {
			b.Fatal(err)
		}
		resp, err := http.Post(ts.URL+"/campaigns", "application/json", &buf)
		if err != nil {
			b.Fatal(err)
		}
		var st serve.CampaignStatus
		if resp.StatusCode != http.StatusAccepted {
			resp.Body.Close()
			b.Fatalf("submit campaign: HTTP %d", resp.StatusCode)
		}
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
		for st.State == "running" {
			time.Sleep(500 * time.Microsecond)
			resp, err := http.Get(ts.URL + "/campaigns/" + st.ID)
			if err != nil {
				b.Fatal(err)
			}
			err = json.NewDecoder(resp.Body).Decode(&st)
			resp.Body.Close()
			if err != nil {
				b.Fatal(err)
			}
		}
		if st.State != "done" || st.Done != b.N {
			b.Fatalf("campaign ended %q with %d/%d points done", st.State, st.Done, b.N)
		}
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "points/sec")
	}
	b.Run("fresh", func(b *testing.B) { run(b, 0) })
	b.Run("warm", func(b *testing.B) { run(b, 2) })
}
