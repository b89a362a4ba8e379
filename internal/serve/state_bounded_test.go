package serve

// Soak gate for zsimd's memory: a long stream of short jobs and campaigns
// through one server must leave every piece of its state bounded by its
// option (finished jobs and campaigns by RetainJobs, the pool by
// PoolSize, latency series by their cardinality cap), and the live heap flat
// once the retention window has filled.

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"zsim/internal/campaign"
)

// soakDo serves one request in process and returns its status code and body.
func soakDo(s *Server, method, path string, body any) (int, []byte) {
	var buf bytes.Buffer
	if body != nil {
		_ = json.NewEncoder(&buf).Encode(body)
	}
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(method, path, &buf))
	return rec.Code, rec.Body.Bytes()
}

// TestServeStateBounded streams 5,000 short jobs and 200 campaigns of 50
// points (every fifth one cancelled in flight) through a server retaining 64
// finished jobs and campaigns. At ten checkpoints it checks the structural
// bounds, once while work is in flight and once quiescent, and samples the
// live heap after a GC; after the warm-up third every sample must stay within
// heapSlack of the first one taken after it. -short runs three rounds and
// skips the heap check.
func TestServeStateBounded(t *testing.T) {
	const (
		rounds, warmup   = 10, 3
		jobsPerRound     = 500
		campsPerRound    = 20
		pointsPerCamp    = 50
		retain, poolSize = 64, 4
		heapSlack        = 1 << 20
	)
	n := rounds
	if testing.Short() {
		n = warmup
	}
	s := New(Options{Workers: 2, QueueDepth: 16, RetainJobs: retain, PoolSize: poolSize})
	defer s.Shutdown(time.Second)

	job := JobRequest{Workloads: []WorkloadSpec{{Name: "blackscholes", Threads: 1, Blocks: 2}}, HostThreads: 1}
	seeds := make([]uint64, pointsPerCamp)
	for i := range seeds {
		seeds[i] = uint64(i + 1)
	}
	camp := CampaignRequest{Base: job, Axes: campaign.Axes{Seeds: seeds}}

	check := func(round int, where string) {
		t.Helper()
		s.mu.Lock()
		defer s.mu.Unlock()
		running, live := 0, 0
		for _, c := range s.campaigns {
			if c.status(false).State == StateRunning {
				running++
			}
		}
		for _, c := range s.active {
			if c.final != nil {
				t.Errorf("round %d %s: finished %s still active", round, where, c.id)
			}
		}
		for _, j := range s.jobs {
			if !j.terminal() {
				live++
			}
		}
		if len(s.active) != running {
			t.Errorf("round %d %s: %d active campaigns, %d running", round, where, len(s.active), running)
		}
		if len(s.campaigns) > retain+len(s.active) {
			t.Errorf("round %d %s: %d campaigns addressable, retain %d + %d active", round, where, len(s.campaigns), retain, len(s.active))
		}
		if len(s.jobs) > retain+live || len(s.done) > retain {
			t.Errorf("round %d %s: %d jobs addressable, %d in the ring, retain %d + %d live", round, where, len(s.jobs), len(s.done), retain, live)
		}
		if len(s.metrics.latency) > maxLatencySeries+1 {
			t.Errorf("round %d %s: %d latency series", round, where, len(s.metrics.latency))
		}
		if s.pool.total > poolSize || len(s.pool.shapes) > s.pool.total {
			t.Errorf("round %d %s: pool holds %d simulators of %d shapes (size %d)", round, where, s.pool.total, len(s.pool.shapes), poolSize)
		}
	}
	quiescent := func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		for _, j := range s.jobs {
			if !j.terminal() {
				return false
			}
		}
		return len(s.active) == 0
	}

	var base uint64
	for round := 0; round < n; round++ {
		for i := 0; i < campsPerRound; i++ {
			code, body := soakDo(s, "POST", "/campaigns", &camp)
			var st CampaignStatus
			if code != http.StatusAccepted || json.Unmarshal(body, &st) != nil {
				t.Fatalf("campaign submit: HTTP %d: %s", code, body)
			}
			if i%5 == 0 {
				// A campaign that already ran to completion refuses the cancel.
				if code, body := soakDo(s, "POST", "/campaigns/"+st.ID+"/cancel", nil); code != http.StatusAccepted && code != http.StatusConflict {
					t.Fatalf("campaign cancel: HTTP %d: %s", code, body)
				}
			}
		}
		for i := 0; i < jobsPerRound; {
			switch code, body := soakDo(s, "POST", "/jobs", &job); code {
			case http.StatusAccepted:
				i++
			case http.StatusServiceUnavailable:
				time.Sleep(100 * time.Microsecond)
			default:
				t.Fatalf("job submit: HTTP %d: %s", code, body)
			}
		}
		check(round, "in flight")
		for deadline := time.Now().Add(time.Minute); !quiescent(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("round %d never quiesced", round)
			}
		}
		check(round, "quiescent")
		if code, body := soakDo(s, "GET", "/campaigns", nil); code != http.StatusOK {
			t.Fatalf("campaign list: HTTP %d: %s", code, body)
		}

		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		t.Logf("round %d: live heap %.2f MB", round, float64(ms.HeapAlloc)/(1<<20))
		switch {
		case testing.Short():
		case round == warmup:
			base = ms.HeapAlloc
		case round > warmup && ms.HeapAlloc > base+heapSlack:
			t.Errorf("round %d: live heap %d B grew %d B past the post-warm-up sample (slack %d B)", round, ms.HeapAlloc, ms.HeapAlloc-base, heapSlack)
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if retired := len(s.retired); !testing.Short() && retired != retain {
		t.Fatalf("%d campaigns retired and addressable, want %d", retired, retain)
	}
}
