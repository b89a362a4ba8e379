package serve

import (
	"bytes"
	"cmp"
	"fmt"
	"maps"
	"net/http"
	"slices"
	"time"

	"zsim/internal/telemetry"
)

// metrics is zsimd's scrape registry, guarded by Server.mu. Service-level
// counters (jobs, sheds, cancels, latency histograms) are updated at
// job-lifecycle edges — never on the simulation hot path. Engine-level
// counters aggregate the per-job telemetry probes: each running job's probe
// is registered here, and when the job finishes its final snapshot is folded
// into the completed totals in the same critical section that returns the
// simulator (whose probe the next job will rewind) to the warm pool, so the
// exported zsim_engine_* series are monotone for the daemon's lifetime.
type metrics struct {
	start          time.Time
	sheds          map[string]uint64 // shed reason -> count
	cancels        uint64
	campaignPoints uint64            // campaign children ever finished
	jobsTotal      map[string]uint64 // terminal state -> count
	reused         uint64
	latency        map[latencyKey]*telemetry.Histogram
	running        map[*telemetry.Probe]struct{}
	completed      telemetry.Sample
	inflight       int
	// ewmaLatency tracks recent job service latency (seconds; 0 until the
	// first job finishes) and feeds the queue-state-derived Retry-After.
	ewmaLatency float64
}

// maxLatencySeries caps the distinct latency series, guarding label
// cardinality.
const maxLatencySeries = 64

// latencyKey labels one job-latency histogram: terminal outcome plus the
// configuration shape (hex of zsim.Config.ShapeKey; "none" when the job never
// built a config).
type latencyKey struct {
	outcome string
	shape   string
}

func newMetrics() metrics {
	return metrics{
		start:     time.Now(),
		sheds:     make(map[string]uint64),
		jobsTotal: make(map[string]uint64),
		latency:   make(map[latencyKey]*telemetry.Histogram),
		running:   make(map[*telemetry.Probe]struct{}),
	}
}

// shapeLabel renders a shape key for the shape label (0 = no config built).
func shapeLabel(key uint64) string {
	if key == 0 {
		return "none"
	}
	return fmt.Sprintf("%016x", key)
}

// detach folds the job's final engine snapshot into the completed totals and
// withdraws its probe from the job and the live set; callers hold s.mu, and
// hold it on until the simulator is back in the pool: once pooled, the next
// job rewinds the probe, and a scrape between pool-put and fold would see the
// engine counters dip below a previous scrape.
func (s *Server) detach(j *job) {
	if p := j.probe; p != nil {
		delete(s.metrics.running, p)
		s.metrics.completed.Add(p.Snapshot().Sample)
		j.probe = nil
	}
}

// jobDone records a job's terminal state and latency and, for a job a worker
// started, drops the in-flight gauge; callers hold s.mu.
func (m *metrics) jobDone(state, shape string, dur time.Duration, wasReused, started bool) {
	if started {
		m.inflight--
	}
	m.jobsTotal[state]++
	if wasReused {
		m.reused++
	}
	if sec := dur.Seconds(); m.ewmaLatency == 0 {
		m.ewmaLatency = sec
	} else {
		m.ewmaLatency = 0.8*m.ewmaLatency + 0.2*sec
	}
	key := latencyKey{outcome: state, shape: shape}
	h := m.latency[key]
	if h == nil {
		if len(m.latency) >= maxLatencySeries {
			// Cardinality guard: overflow series collapse into one bucket set.
			key.shape = "other"
			h = m.latency[key]
		}
		if h == nil {
			h = telemetry.NewHistogram(nil)
			m.latency[key] = h
		}
	}
	h.Observe(dur.Seconds())
}

// handleMetrics serves GET /metrics in Prometheus text exposition format. The
// document is rendered in one critical section, so every scrape is one
// coherent snapshot, and written after the lock is released.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var buf bytes.Buffer
	s.mu.Lock()
	s.writeMetrics(telemetry.NewPromWriter(&buf))
	s.mu.Unlock()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = w.Write(buf.Bytes())
}

// writeMetrics renders the exposition; callers hold s.mu.
func (s *Server) writeMetrics(pw *telemetry.PromWriter) {
	m := &s.metrics
	storeRows, storeEvicted, _, jobsEvicted := s.windows()
	ps := s.pool.stats()
	campStates := map[string]int{StateRunning: len(s.active)}
	for _, c := range s.retired {
		campStates[c.final.State]++
	}

	// Service-level metrics.
	pw.Family("zsimd_uptime_seconds", "gauge", "Seconds since the server started.")
	pw.Sample("zsimd_uptime_seconds", nil, time.Since(m.start).Seconds())
	pw.Family("zsimd_queue_depth", "gauge", "Jobs waiting in the admission queue.")
	pw.UintSample("zsimd_queue_depth", nil, uint64(s.sched.size))
	pw.Family("zsimd_queue_capacity", "gauge", "Admission queue capacity.")
	pw.UintSample("zsimd_queue_capacity", nil, uint64(s.opts.QueueDepth))
	pw.Family("zsimd_queue_class_depth", "gauge", "Jobs waiting in the admission queue, by priority class.")
	for class, name := range classNames {
		pw.UintSample("zsimd_queue_class_depth", []telemetry.Label{{Name: "class", Value: name}}, uint64(len(s.sched.queues[class])))
	}
	pw.Family("zsimd_workers", "gauge", "Configured simulation workers.")
	pw.UintSample("zsimd_workers", nil, uint64(s.opts.Workers))
	pw.Family("zsimd_jobs_inflight", "gauge", "Jobs currently executing on workers.")
	pw.UintSample("zsimd_jobs_inflight", nil, uint64(m.inflight))
	pw.Family("zsimd_jobs_total", "counter", "Finished jobs by terminal state.")
	for _, st := range slices.Sorted(maps.Keys(m.jobsTotal)) {
		pw.UintSample("zsimd_jobs_total", []telemetry.Label{{Name: "outcome", Value: st}}, m.jobsTotal[st])
	}
	pw.Family("zsimd_jobs_reused_total", "counter", "Finished jobs served by a warm pooled simulator.")
	pw.UintSample("zsimd_jobs_reused_total", nil, m.reused)
	pw.Family("zsimd_sheds_total", "counter", "Submissions shed, by reason.")
	for _, reason := range slices.Sorted(maps.Keys(m.sheds)) {
		pw.UintSample("zsimd_sheds_total", []telemetry.Label{{Name: "reason", Value: reason}}, m.sheds[reason])
	}
	pw.Family("zsimd_cancels_total", "counter", "Accepted cancellation requests.")
	pw.UintSample("zsimd_cancels_total", nil, m.cancels)
	pw.Family("zsimd_jobs_evicted_total", "counter", "Terminal jobs evicted from retention (archived in store/audit).")
	pw.UintSample("zsimd_jobs_evicted_total", nil, jobsEvicted)

	// Campaign and result-store metrics.
	pw.Family("zsimd_campaigns", "gauge", "Campaigns by lifecycle state.")
	for _, st := range []string{"cancelled", "done", "running"} {
		pw.UintSample("zsimd_campaigns", []telemetry.Label{{Name: "state", Value: st}}, uint64(campStates[st]))
	}
	pw.Family("zsimd_campaign_points_done_total", "counter", "Campaign points finished across all campaigns.")
	pw.UintSample("zsimd_campaign_points_done_total", nil, m.campaignPoints)
	pw.Family("zsimd_results_total", "counter", "Result rows filed into the store.")
	pw.UintSample("zsimd_results_total", nil, s.doneTotal)
	pw.Family("zsimd_store_rows", "gauge", "Result rows currently retained in the store ring.")
	pw.UintSample("zsimd_store_rows", nil, uint64(storeRows))
	pw.Family("zsimd_store_evictions_total", "counter", "Result rows evicted from the store ring (audit log keeps them).")
	pw.UintSample("zsimd_store_evictions_total", nil, storeEvicted)

	pw.Family("zsimd_job_latency_seconds", "histogram", "Job wall time from start to finish, by outcome and config shape.")
	keys := slices.SortedFunc(maps.Keys(m.latency), func(a, b latencyKey) int {
		return cmp.Or(cmp.Compare(a.outcome, b.outcome), cmp.Compare(a.shape, b.shape))
	})
	for _, k := range keys {
		m.latency[k].Write(pw, "zsimd_job_latency_seconds", []telemetry.Label{
			{Name: "outcome", Value: k.outcome}, {Name: "shape", Value: k.shape},
		})
	}

	// Warm-pool metrics.
	pw.Family("zsimd_pool_occupancy", "gauge", "Warm simulators currently retained in the pool.")
	pw.UintSample("zsimd_pool_occupancy", nil, uint64(ps.Occupancy))
	pw.Family("zsimd_pool_shapes", "gauge", "Distinct configuration shapes retained.")
	pw.UintSample("zsimd_pool_shapes", nil, uint64(ps.Shapes))
	pw.Family("zsimd_pool_hits_total", "counter", "Warm-pool checkout hits.")
	pw.UintSample("zsimd_pool_hits_total", nil, ps.Hits)
	pw.Family("zsimd_pool_misses_total", "counter", "Warm-pool checkout misses.")
	pw.UintSample("zsimd_pool_misses_total", nil, ps.Misses)
	pw.Family("zsimd_pool_returns_total", "counter", "Simulators returned to the pool.")
	pw.UintSample("zsimd_pool_returns_total", nil, ps.Returns)
	pw.Family("zsimd_pool_discards_total", "counter", "Simulators discarded instead of pooled.")
	pw.UintSample("zsimd_pool_discards_total", nil, ps.Discards)
	pw.Family("zsimd_pool_prewarmed_total", "counter", "Simulators parked by startup prewarming.")
	pw.UintSample("zsimd_pool_prewarmed_total", nil, ps.Prewarmed)
	pw.Family("zsimd_pool_expiries_total", "counter", "Pooled simulators released by idle expiry.")
	pw.UintSample("zsimd_pool_expiries_total", nil, ps.Expiries)
	pw.Family("zsimd_pool_hit_rate", "gauge", "Warm-pool hit rate over all checkouts.")
	pw.Sample("zsimd_pool_hit_rate", nil, ps.HitRate)
	pw.Family("zsimd_pool_arena_bytes", "gauge", "Arena bytes held by retained warm simulators.")
	pw.UintSample("zsimd_pool_arena_bytes", nil, s.pool.arenaBytes())

	// Engine-phase metrics, aggregated over completed jobs plus live probes.
	agg := m.completed
	phases := map[string]int{}
	for p := range m.running {
		snap := p.Snapshot()
		agg.Add(snap.Sample)
		phases[snap.Phase]++
	}
	pw.Family("zsim_engine_running_jobs", "gauge", "Running jobs by current engine phase.")
	for _, ph := range []string{"bound", "weave", "idle", "done"} {
		pw.UintSample("zsim_engine_running_jobs", []telemetry.Label{{Name: "phase", Value: ph}}, uint64(phases[ph]))
	}
	engCounter := func(name, help string, v uint64) {
		pw.Family(name, "counter", help)
		pw.UintSample(name, nil, v)
	}
	engCounter("zsim_engine_intervals_total", "Bound-weave intervals completed across all jobs.", agg.Intervals)
	engCounter("zsim_engine_bound_rounds_total", "Bound-phase rounds executed across all jobs.", agg.BoundRounds)
	engCounter("zsim_engine_cycles_total", "Simulated cycles advanced across all jobs.", agg.Cycles)
	engCounter("zsim_engine_instructions_total", "Simulated instructions across all jobs.", agg.Instrs)
	engCounter("zsim_engine_weave_events_total", "Weave events dispatched across all jobs.", agg.WeaveEvents)
	engCounter("zsim_engine_pool_runs_total", "Bound-phase worker-pool launches.", agg.PoolRuns)
	engCounter("zsim_engine_pool_wakes_total", "Wakeups of parked bound-phase pool workers.", agg.PoolWakes)
	engSeconds := func(name, help string, nanos int64) {
		pw.Family(name, "counter", help)
		pw.Sample(name, nil, float64(nanos)/1e9)
	}
	engSeconds("zsim_engine_bound_seconds_total", "Host wall time spent in the bound phase.", agg.BoundNanos)
	engSeconds("zsim_engine_weave_seconds_total", "Host wall time spent in the weave phase.", agg.WeaveNanos)
	engSeconds("zsim_engine_chain_seconds_total", "Part of the weave time spent building event chains, root heap pushes included.", agg.ChainNanos)
}
