package serve

import (
	"fmt"
	"maps"
	"net/http"
	"slices"
	"sort"
	"sync"
	"time"

	"zsim/internal/telemetry"
)

// metrics is zsimd's scrape registry. Service-level counters (jobs, sheds,
// cancels, latency histograms) are updated at job-lifecycle edges under one
// mutex — never on the simulation hot path. Engine-level counters aggregate
// the per-job telemetry probes: each running job's probe is registered here,
// and when the job finishes its final snapshot is folded into the completed
// totals *before* the simulator (whose probe the next job will rewind) can
// return to the warm pool — under the same mutex a scrape sums them with, so
// the exported zsim_engine_* series are monotone for the daemon's lifetime.
type metrics struct {
	start time.Time

	mu         sync.Mutex
	sheds      map[string]uint64 // shed reason -> count
	cancels    uint64
	jobsTotal  map[string]uint64 // terminal state -> count
	reused     uint64
	latency    map[latencyKey]*telemetry.Histogram
	running    map[*telemetry.Probe]struct{}
	completed  telemetry.Sample
	inflight   int
	maxVariant int // cap on distinct latency series, guarding label cardinality
	// ewmaLatency tracks recent job service latency (seconds; 0 until the
	// first job finishes) and feeds the queue-state-derived Retry-After.
	ewmaLatency float64
}

// latencyKey labels one job-latency histogram: terminal outcome plus the
// configuration shape (hex of zsim.Config.ShapeKey; "none" when the job never
// built a config).
type latencyKey struct {
	outcome string
	shape   string
}

func newMetrics() *metrics {
	return &metrics{
		start:      time.Now(),
		sheds:      make(map[string]uint64),
		jobsTotal:  make(map[string]uint64),
		latency:    make(map[latencyKey]*telemetry.Histogram),
		running:    make(map[*telemetry.Probe]struct{}),
		maxVariant: 64,
	}
}

// shapeLabel renders a shape key for the shape label (0 = no config built).
func shapeLabel(key uint64) string {
	if key == 0 {
		return "none"
	}
	return fmt.Sprintf("%016x", key)
}

func (m *metrics) shed(reason string) {
	m.mu.Lock()
	m.sheds[reason]++
	m.mu.Unlock()
}

func (m *metrics) cancelRequested() {
	m.mu.Lock()
	m.cancels++
	m.mu.Unlock()
}

// jobStarted bumps the in-flight gauge when a worker picks a job up.
func (m *metrics) jobStarted() {
	m.mu.Lock()
	m.inflight++
	m.mu.Unlock()
}

// attachProbe registers a running job's probe in the live engine aggregate.
func (m *metrics) attachProbe(p *telemetry.Probe) {
	if p == nil {
		return
	}
	m.mu.Lock()
	m.running[p] = struct{}{}
	m.mu.Unlock()
}

// detachProbe folds the job's final engine snapshot into the completed totals,
// removing its probe from the live set in the same critical section. The
// caller must invoke this BEFORE returning the simulator to the warm pool:
// once pooled, the next job rewinds the probe, and a scrape between pool-put
// and fold would see the engine counters dip below a previous scrape.
func (m *metrics) detachProbe(p *telemetry.Probe, final telemetry.Snapshot) {
	if p == nil {
		return
	}
	m.mu.Lock()
	delete(m.running, p)
	m.completed.Add(final.Sample)
	m.mu.Unlock()
}

// jobDone records a job's terminal state and latency and, for a job a worker
// started (jobStarted), drops the in-flight gauge.
func (m *metrics) jobDone(state, shape string, dur time.Duration, wasReused, started bool) {
	key := latencyKey{outcome: state, shape: shape}
	m.mu.Lock()
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
	h := m.latency[key]
	if h == nil {
		if len(m.latency) >= m.maxVariant {
			// Cardinality guard: overflow series collapse into one bucket set.
			key = latencyKey{outcome: state, shape: "other"}
			h = m.latency[key]
		}
		if h == nil {
			h = telemetry.NewHistogram(nil)
			m.latency[key] = h
		}
	}
	m.mu.Unlock()
	h.Observe(dur.Seconds())
}

// avgLatencySeconds reports the latency EWMA (0 until a job has finished).
func (m *metrics) avgLatencySeconds() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.ewmaLatency
}

// engineAggregate sums completed totals with every live probe's current
// snapshot. phaseCounts reports running jobs per published phase.
func (m *metrics) engineAggregate() (agg telemetry.Sample, phaseCounts map[string]int) {
	phaseCounts = map[string]int{"bound": 0, "weave": 0, "idle": 0, "done": 0}
	m.mu.Lock()
	defer m.mu.Unlock()
	agg = m.completed
	for p := range m.running {
		s := p.Snapshot()
		agg.Add(s.Sample)
		phaseCounts[s.Phase]++
	}
	return agg, phaseCounts
}

// handleMetrics serves GET /metrics in Prometheus text exposition format.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	m := s.metrics

	// Snapshot everything up front so the exposition is internally coherent.
	agg, phases := m.engineAggregate()
	m.mu.Lock()
	uptime := time.Since(m.start).Seconds()
	inflight := m.inflight
	cancels := m.cancels
	reused := m.reused
	sheds := maps.Clone(m.sheds)
	jobs := maps.Clone(m.jobsTotal)
	lat := maps.Clone(m.latency)
	m.mu.Unlock()
	ps := s.pool.stats()
	arenaBytes := s.pool.arenaBytes()
	classDepths := s.sched.classDepths()
	s.mu.Lock()
	storeRows, storeEvicted, _, jobsEvicted := s.windowsLocked()
	results := s.doneTotal
	s.mu.Unlock()
	campStates := map[string]int{"running": 0, "done": 0, "cancelled": 0}
	var campPointsDone uint64
	for _, c := range s.campaignList() {
		c.mu.Lock()
		campStates[c.stateName()]++
		campPointsDone += uint64(c.done)
		c.mu.Unlock()
	}

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	pw := telemetry.NewPromWriter(w)

	// Service-level metrics.
	pw.Family("zsimd_uptime_seconds", "gauge", "Seconds since the server started.")
	pw.Sample("zsimd_uptime_seconds", nil, uptime)
	pw.Family("zsimd_queue_depth", "gauge", "Jobs waiting in the admission queue.")
	pw.UintSample("zsimd_queue_depth", nil, uint64(classDepths[classHigh]+classDepths[classNormal]+classDepths[classLow]))
	pw.Family("zsimd_queue_capacity", "gauge", "Admission queue capacity.")
	pw.UintSample("zsimd_queue_capacity", nil, uint64(s.opts.QueueDepth))
	pw.Family("zsimd_queue_class_depth", "gauge", "Jobs waiting in the admission queue, by priority class.")
	for class, name := range classNames {
		pw.UintSample("zsimd_queue_class_depth", []telemetry.Label{{Name: "class", Value: name}}, uint64(classDepths[class]))
	}
	pw.Family("zsimd_workers", "gauge", "Configured simulation workers.")
	pw.UintSample("zsimd_workers", nil, uint64(s.opts.Workers))
	pw.Family("zsimd_jobs_inflight", "gauge", "Jobs currently executing on workers.")
	pw.UintSample("zsimd_jobs_inflight", nil, uint64(inflight))
	pw.Family("zsimd_jobs_total", "counter", "Finished jobs by terminal state.")
	for _, st := range slices.Sorted(maps.Keys(jobs)) {
		pw.UintSample("zsimd_jobs_total", []telemetry.Label{{Name: "outcome", Value: st}}, jobs[st])
	}
	pw.Family("zsimd_jobs_reused_total", "counter", "Finished jobs served by a warm pooled simulator.")
	pw.UintSample("zsimd_jobs_reused_total", nil, reused)
	pw.Family("zsimd_sheds_total", "counter", "Submissions shed, by reason.")
	for _, reason := range slices.Sorted(maps.Keys(sheds)) {
		pw.UintSample("zsimd_sheds_total", []telemetry.Label{{Name: "reason", Value: reason}}, sheds[reason])
	}
	pw.Family("zsimd_cancels_total", "counter", "Accepted cancellation requests.")
	pw.UintSample("zsimd_cancels_total", nil, cancels)
	pw.Family("zsimd_jobs_evicted_total", "counter", "Terminal jobs evicted from retention (archived in store/audit).")
	pw.UintSample("zsimd_jobs_evicted_total", nil, jobsEvicted)

	// Campaign and result-store metrics.
	pw.Family("zsimd_campaigns", "gauge", "Campaigns by lifecycle state.")
	for _, st := range []string{"cancelled", "done", "running"} {
		pw.UintSample("zsimd_campaigns", []telemetry.Label{{Name: "state", Value: st}}, uint64(campStates[st]))
	}
	pw.Family("zsimd_campaign_points_done_total", "counter", "Campaign points finished across all campaigns.")
	pw.UintSample("zsimd_campaign_points_done_total", nil, campPointsDone)
	pw.Family("zsimd_results_total", "counter", "Result rows filed into the store.")
	pw.UintSample("zsimd_results_total", nil, results)
	pw.Family("zsimd_store_rows", "gauge", "Result rows currently retained in the store ring.")
	pw.UintSample("zsimd_store_rows", nil, uint64(storeRows))
	pw.Family("zsimd_store_evictions_total", "counter", "Result rows evicted from the store ring (audit log keeps them).")
	pw.UintSample("zsimd_store_evictions_total", nil, storeEvicted)

	pw.Family("zsimd_job_latency_seconds", "histogram", "Job wall time from start to finish, by outcome and config shape.")
	keys := make([]latencyKey, 0, len(lat))
	for k := range lat {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(a, b int) bool {
		if keys[a].outcome != keys[b].outcome {
			return keys[a].outcome < keys[b].outcome
		}
		return keys[a].shape < keys[b].shape
	})
	for _, k := range keys {
		lat[k].Write(pw, "zsimd_job_latency_seconds", []telemetry.Label{
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
	pw.UintSample("zsimd_pool_arena_bytes", nil, arenaBytes)

	// Engine-phase metrics, aggregated over completed jobs plus live probes.
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

	if err := pw.Err(); err != nil {
		// The response is already streaming; nothing to do but drop it.
		_ = err
	}
}

// uptimeString renders the server's uptime for /healthz.
func (m *metrics) uptimeString() string {
	return time.Since(m.start).Round(time.Millisecond).String()
}

// inflightCount returns the in-flight gauge.
func (m *metrics) inflightCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.inflight
}
