package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"zsim/internal/campaign"
	"zsim/internal/config"
	"zsim/internal/serve"
)

// zsimd-mix sizes. A hot job is tiny on purpose: construction, Reset and
// HTTP+JSON are the work, simulation is ~nothing.
const (
	zsimdClients    = 2 // closed loop: each client submits, polls to a terminal state, then submits the next
	zsimdHotFrac    = 0.85
	zsimdColdShapes = 8
	zsimdJobBlocks  = 25
	zsimdJobThreads = 2
	campaignPoints  = 1000
	campaignQuota   = 32
	// phaseAFrac is the share of the measured window given to the job mix;
	// the rest runs back-to-back campaigns.
	phaseAFrac = 0.6
	// maxSeqJobs bounds the pre-drawn job order; a window never gets near it.
	maxSeqJobs = 1 << 18
	// A client polls a job by asking again as soon as it has the answer: the
	// round trip is the pause. (A time.Sleep below a millisecond wakes after
	// either ~0.25 ms or ~1.1 ms, depending on which runtime timer path the
	// thread is parked in, and job latency then measures that.) A campaign
	// runs for a third of a second and is asked about every campaignPoll.
	campaignPoll = 2 * time.Millisecond
	// A job or campaign still not terminal after this long has failed: the
	// benchmark must end even if the server never answers.
	jobTimeout      = 20 * time.Second
	campaignTimeout = 60 * time.Second
)

// jobKind is one entry of the job order: hot (-1) or the index of a cold shape.
type jobKind int8

const hotJob jobKind = -1

// jobSequence draws the hot/cold order from the seed. Cold jobs rotate over
// the cold shapes, so consecutive cold jobs never share a shape.
func jobSequence(seed uint64, n int) []jobKind {
	seq := make([]jobKind, n)
	state := seed*0x9e3779b97f4a7c15 + 0x2545f4914f6cdd1d
	cold := 0
	for i := range seq {
		// splitmix64
		state += 0x9e3779b97f4a7c15
		z := state
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		if float64(z>>11)/(1<<53) < zsimdHotFrac {
			seq[i] = hotJob
		} else {
			seq[i] = jobKind(cold % zsimdColdShapes)
			cold++
		}
	}
	return seq
}

// jobRequest is the wire request for the i-th job of the order drawn from
// seed; no two jobs of a run share a job seed.
func jobRequest(kind jobKind, seed uint64, i int) *serve.JobRequest {
	req := &serve.JobRequest{
		Preset:      "tiled",
		Tiles:       1,
		CoreModel:   "ipc1",
		Workloads:   []serve.WorkloadSpec{{Name: "fluidanimate", Threads: zsimdJobThreads, Blocks: zsimdJobBlocks}},
		HostThreads: 1,
		Seed:        seed<<32 + uint64(i) + 1,
	}
	if kind != hotJob {
		// tiles 2..5 x {ipc1, ooo}: eight shapes, none equal to the hot one.
		req.Tiles = 2 + int(kind)/2
		if kind%2 == 1 {
			req.CoreModel = "ooo"
		}
	}
	return req
}

// fillerRequest is a ninth shape, sent once in warm-up: it parks in the warm
// pool's second slot and is never asked for again, so with the hot shape in
// the first slot every cold job misses the pool and is discarded afterwards.
func fillerRequest() *serve.JobRequest {
	req := jobRequest(hotJob, 0, 0)
	req.Tiles = 6
	return req
}

// jobSample is one job as its client saw it. Times are host milliseconds.
type jobSample struct {
	kind      jobKind
	ok        bool
	latencyMS float64 // submit sent -> terminal state seen
	doneS     float64 // when that was, in seconds since phase A began
	submitMS  float64 // POST /jobs round trip
	queueMS   float64 // server-side: submitted -> started
	serviceMS float64 // server-side: started -> finished
	instrs    uint64
	reused    bool
}

type zsimdClient struct {
	base string
	http *http.Client
}

func (c *zsimdClient) do(method, path string, body, out any) (int, error) {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return 0, err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode < 300 {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return resp.StatusCode, fmt.Errorf("%s %s: decoding: %w", method, path, err)
		}
	}
	// Drain so the keep-alive connection is reused.
	_, _ = io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, nil
}

// runJob submits one job, polls it to a terminal state and fetches its
// result. Any refusal, transport error or non-succeeded end leaves ok false.
func (c *zsimdClient) runJob(kind jobKind, req *serve.JobRequest) jobSample {
	s := jobSample{kind: kind}
	t0 := time.Now()
	var st serve.JobStatus
	code, err := c.do("POST", "/jobs", req, &st)
	s.submitMS = msSince(t0)
	if err != nil || code != http.StatusAccepted {
		return s
	}
	path := "/jobs/" + st.ID
	for st.State == serve.StateQueued || st.State == serve.StateRunning {
		if code, err = c.do("GET", path, nil, &st); err != nil || code != http.StatusOK || time.Since(t0) > jobTimeout {
			return s
		}
	}
	s.latencyMS = msSince(t0)
	s.queueMS = st.Started.Sub(st.Submitted).Seconds() * 1e3
	s.serviceMS = st.Finished.Sub(st.Started).Seconds() * 1e3
	var res serve.JobResult
	if code, err = c.do("GET", path+"/result", nil, &res); err != nil || code != http.StatusOK {
		return s
	}
	if res.Metrics != nil {
		s.instrs = res.Metrics.Instrs
	}
	s.reused = res.Reused
	s.ok = st.State == serve.StateSucceeded && s.instrs > 0
	return s
}

func msSince(t time.Time) float64 { return time.Since(t).Seconds() * 1e3 }

// campaignSample is one 1,000-point same-shape seed sweep.
type campaignSample struct {
	ok      bool
	seconds float64 // POST /campaigns sent -> state "done" seen
}

// runCampaign runs the n-th sweep of a run; no two sweeps, of this or another
// -seed, share a point seed.
func (c *zsimdClient) runCampaign(seed uint64, n int) campaignSample {
	creq := serve.CampaignRequest{
		Name:  "bench-sweep",
		Base:  *jobRequest(hotJob, seed, 0),
		Quota: campaignQuota,
	}
	creq.Axes.Seeds = make([]uint64, campaignPoints)
	for i := range creq.Axes.Seeds {
		creq.Axes.Seeds[i] = seed<<32 + uint64(n*campaignPoints+i) + 1
	}
	t0 := time.Now()
	var st serve.CampaignStatus
	code, err := c.do("POST", "/campaigns", &creq, &st)
	if err != nil || code != http.StatusAccepted || st.Points != campaignPoints {
		return campaignSample{}
	}
	id := st.ID
	for st.State == "running" {
		time.Sleep(campaignPoll)
		var all []serve.CampaignStatus
		if code, err = c.do("GET", "/campaigns", nil, &all); err != nil || code != http.StatusOK || time.Since(t0) > campaignTimeout {
			return campaignSample{}
		}
		for _, cs := range all {
			if cs.ID == id {
				st = cs
			}
		}
	}
	s := campaignSample{seconds: time.Since(t0).Seconds()}
	if code, err = c.do("GET", "/campaigns/"+id, nil, &st); err != nil || code != http.StatusOK {
		return s
	}
	s.ok = st.State == "done" && st.Summary != nil && st.Summary.Outcomes[serve.StateSucceeded] == campaignPoints
	return s
}

// zsimdRun is everything one zsimd-mix window measured.
type zsimdRun struct {
	setupS     []float64 // server start + first hot job, one per fresh server
	jobs       []jobSample
	phaseAS    float64
	campaigns  []campaignSample
	allocMB    float64 // TotalAlloc delta over phase A per job, client side included
	liveHeapMB float64
	poolHits   uint64
	poolMisses uint64
	engine     map[string]float64 // /metrics zsim_engine_* counters, phase-A deltas
	expandNS   float64            // campaign.Expand, ns per point
}

// startServer brings up a fresh in-process zsimd and runs one hot job through
// it: what a user waits for before the service answers warm.
func startServer() (*serve.Server, *httptest.Server, *zsimdClient, float64, error) {
	t0 := time.Now()
	srv := serve.New(serve.Options{Workers: 1, PoolSize: 2, QueueDepth: 1 << 16})
	ts := httptest.NewServer(srv)
	c := &zsimdClient{base: ts.URL, http: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: zsimdClients}}}
	s := c.runJob(hotJob, jobRequest(hotJob, 0, 0))
	setup := time.Since(t0).Seconds()
	if !s.ok {
		stopServer(srv, ts, c)
		return nil, nil, nil, 0, fmt.Errorf("%s: first hot job failed", zsimdMixName)
	}
	return srv, ts, c, setup, nil
}

func stopServer(srv *serve.Server, ts *httptest.Server, c *zsimdClient) {
	c.http.CloseIdleConnections()
	ts.Close()
	srv.Shutdown(5 * time.Second)
}

// runZsimdMix measures one window: twenty fresh servers for setup_s, then on
// the last one phase A (the closed-loop job mix) and phase B (campaigns).
func runZsimdMix(seed uint64, seconds float64) (*zsimdRun, error) {
	run := &zsimdRun{}
	var (
		srv *serve.Server
		ts  *httptest.Server
		c   *zsimdClient
	)
	const setups = 21
	for i := 0; i < setups; i++ {
		if srv != nil {
			stopServer(srv, ts, c)
		}
		runtime.GC() // as before every simulation rep: setup starts from a collected heap
		var setup float64
		var err error
		if srv, ts, c, setup, err = startServer(); err != nil {
			return nil, err
		}
		// The first server also pays one-off process costs (net listener,
		// JSON type caches); it is the warm-up and is not counted.
		if i > 0 {
			run.setupS = append(run.setupS, setup)
		}
	}
	defer func() { stopServer(srv, ts, c) }()

	// Warm-up, off the clock: park the filler shape, touch every cold shape
	// once and open both keep-alive connections.
	if s := c.runJob(0, fillerRequest()); !s.ok {
		return nil, fmt.Errorf("%s: filler job failed", zsimdMixName)
	}
	var warm sync.WaitGroup
	for cl := 0; cl < zsimdClients; cl++ {
		warm.Add(1)
		go func(cl int) {
			defer warm.Done()
			for k := cl; k < zsimdColdShapes; k += zsimdClients {
				c.runJob(jobKind(k), jobRequest(jobKind(k), 0, k))
				c.runJob(hotJob, jobRequest(hotJob, 0, k))
			}
		}(cl)
	}
	warm.Wait()

	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	run.liveHeapMB = float64(ms.HeapAlloc) / (1 << 20)
	allocBefore := ms.TotalAlloc
	var before healthPool
	if err := c.health(&before); err != nil {
		return nil, err
	}
	engineBefore, err := c.engineCounters()
	if err != nil {
		return nil, err
	}

	// Phase A: closed loop of zsimdClients clients over the seeded order.
	seq := jobSequence(seed, maxSeqJobs)
	deadline := time.Now().Add(time.Duration(seconds * phaseAFrac * float64(time.Second)))
	var next atomic.Int64
	perClient := make([][]jobSample, zsimdClients)
	start := time.Now()
	var wg sync.WaitGroup
	for cl := 0; cl < zsimdClients; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := int(next.Add(1)) - 1
				if i >= len(seq) {
					return
				}
				s := c.runJob(seq[i], jobRequest(seq[i], seed, i))
				s.doneS = time.Since(start).Seconds()
				perClient[cl] = append(perClient[cl], s)
			}
		}(cl)
	}
	wg.Wait()
	run.phaseAS = time.Since(start).Seconds()
	for _, js := range perClient {
		run.jobs = append(run.jobs, js...)
	}
	runtime.ReadMemStats(&ms)
	run.allocMB = float64(ms.TotalAlloc-allocBefore) / (1 << 20) / float64(len(run.jobs))
	var after healthPool
	if err := c.health(&after); err != nil {
		return nil, err
	}
	run.poolHits = after.Hits - before.Hits
	run.poolMisses = after.Misses - before.Misses
	if run.engine, err = c.engineCounters(); err != nil {
		return nil, err
	}
	for name, v := range engineBefore {
		run.engine[name] -= v
	}

	// Phase B: same-shape seed sweeps, back to back, until the window ends
	// (at least three so the median is one).
	end := start.Add(time.Duration(seconds * float64(time.Second)))
	for n := 0; n < 3 || time.Now().Before(end); n++ {
		run.campaigns = append(run.campaigns, c.runCampaign(seed, n))
	}

	// campaign.Expand alone, for the per-layer table.
	cfg, seeds := config.TiledChip(1, config.CoreIPC1), make([]uint64, campaignPoints)
	for i := range seeds {
		seeds[i] = uint64(i) + 1
	}
	t0 := time.Now()
	const expands = 20
	for i := 0; i < expands; i++ {
		if _, err := campaign.Expand(cfg, campaign.Axes{Seeds: seeds}, 0); err != nil {
			return nil, err
		}
	}
	run.expandNS = float64(time.Since(t0).Nanoseconds()) / (expands * campaignPoints)
	return run, nil
}

// perSecond cuts phase A into whole seconds by when each job ended and
// returns every second's count of succeeded jobs and their median and p95
// latency: the spread of the figures that are taken over the whole phase. (The
// quartiles of the latency samples themselves say how far a hot job is from a
// cold one, not how far one second's median is from the next.)
func perSecond(jobs []jobSample, phaseS float64) (rates, p50s, p95s []float64) {
	parts := make([][]float64, int(phaseS))
	for _, j := range jobs {
		if i := int(j.doneS); j.ok && i < len(parts) {
			parts[i] = append(parts[i], j.latencyMS)
		}
	}
	for _, latency := range parts {
		p95, _ := percentile(latency, 95)
		rates, p50s, p95s = append(rates, float64(len(latency))), append(p50s, median(latency)), append(p95s, p95)
	}
	return rates, p50s, p95s
}

// healthPool is the slice of /healthz this benchmark reads.
type healthPool struct {
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
}

func (c *zsimdClient) health(p *healthPool) error {
	var body struct {
		Pool healthPool `json:"pool"`
	}
	code, err := c.do("GET", "/healthz", nil, &body)
	if err != nil || code != http.StatusOK {
		return fmt.Errorf("%s: GET /healthz: code %d: %v", zsimdMixName, code, err)
	}
	*p = body.Pool
	return nil
}

// engineCounters reads the zsim_engine_* counters of /metrics: the engine
// totals the server keeps over all finished jobs.
func (c *zsimdClient) engineCounters() (map[string]float64, error) {
	resp, err := c.http.Get(c.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, value, ok := strings.Cut(sc.Text(), " ")
		if !ok || !strings.HasPrefix(name, "zsim_engine_") || strings.Contains(name, "{") {
			continue
		}
		v, err := strconv.ParseFloat(value, 64)
		if err != nil {
			return nil, fmt.Errorf("%s: /metrics line %q: %w", zsimdMixName, sc.Text(), err)
		}
		out[name] = v
	}
	return out, sc.Err()
}

// runZsimdWorkload measures zsimd-mix and fills its result. The server is
// measured from outside either way, so one window yields both passes'
// metrics; o.untraced and o.traced only select which are reported.
func runZsimdWorkload(o options, kernels map[string]metric, goldenErr float64) (*workloadResult, error) {
	res := &workloadResult{Name: zsimdMixName, Why: zsimdMixWhy, RepSize: map[string]int{
		"clients": zsimdClients, "job.threads": zsimdJobThreads, "job.blocksPerThread": zsimdJobBlocks,
		"coldShapes": zsimdColdShapes, "campaign.points": campaignPoints, "campaign.quota": campaignQuota,
	}}
	seconds := o.seconds
	if !o.untraced {
		seconds = o.tracedSeconds
	}
	run, err := runZsimdMix(o.seed, seconds)
	if err != nil {
		return nil, err
	}

	var latency, submit, queue, hot, cold, points []float64
	var instrs uint64
	for _, j := range run.jobs {
		res.Attempted++
		if !j.ok {
			res.Failed++
			continue
		}
		instrs += j.instrs
		latency = append(latency, j.latencyMS)
		submit = append(submit, j.submitMS)
		queue = append(queue, j.queueMS)
		if j.kind == hotJob {
			hot = append(hot, j.serviceMS)
		} else {
			cold = append(cold, j.serviceMS)
		}
		// A hot job must come off the warm pool and a cold one must not:
		// otherwise the two service times no longer measure what they name.
		if j.reused != (j.kind == hotJob) {
			res.Failed++
			res.note("job of kind %d: reused=%v", j.kind, j.reused)
		}
	}
	for _, cs := range run.campaigns {
		res.Attempted++
		if !cs.ok {
			res.Failed++
			continue
		}
		points = append(points, campaignPoints/cs.seconds)
	}
	if len(latency) == 0 || len(points) == 0 {
		return nil, fmt.Errorf("%s: no job or no campaign succeeded", zsimdMixName)
	}
	res.RepSize["jobs"] = len(run.jobs)
	res.RepSize["campaigns"] = len(run.campaigns)

	if o.untraced {
		p95, used := resolved(latency, 95)
		if used != 95 {
			res.note("job_latency_ms_p95 reads p%.0f: %d jobs leave fewer than %d samples beyond p95", used, len(latency), minBeyond)
		}
		rates, p50s, p95s := perSecond(run.jobs, run.phaseAS)
		// sim_mips, the allocation and the heap figure are defined on the
		// simulation workloads only; here they are padding for the driver's
		// result line (see driverLine), measured through the service.
		res.setEndToEnd([]metric{
			single("sim_mips", float64(instrs)/run.phaseAS/1e6, len(latency)),
			newMetric("setup_s", run.setupS),
			single("alloc_mb_per_run", run.allocMB, len(run.jobs)),
			single("live_heap_mb", run.liveHeapMB, 1),
			single("golden_err_pct", goldenErr, 3),
			overParts("jobs_per_s", float64(len(latency))/run.phaseAS, len(latency), rates),
			overParts("job_latency_ms_p50", median(latency), len(latency), p50s),
			overParts("job_latency_ms_p95", p95, len(latency), p95s),
			newMetric("campaign_points_per_s", points),
		})
	}
	if o.traced {
		got := maps.Clone(kernels)
		put := func(m metric) { got[m.Name] = m }
		put(newMetric("serve.queue_wait_ms_p50", queue))
		put(newMetric("serve.service_ms_p50_hot", hot))
		put(newMetric("serve.service_ms_p50_cold", cold))
		put(newMetric("serve.submit_ms_p50", submit))
		put(single("serve.pool_hit_frac", float64(run.poolHits)/float64(run.poolHits+run.poolMisses), len(run.jobs)))
		put(single("campaign.expand_ns_per_point", run.expandNS, campaignPoints))

		// The engine's share of phase A, from the server's own totals.
		e := func(name string) float64 { return run.engine["zsim_engine_"+name] }
		n := len(run.jobs)
		bound, weave := e("bound_seconds_total"), e("weave_seconds_total")
		other := run.phaseAS - bound - weave
		put(single("boundweave.bound_s", bound, n))
		put(single("boundweave.weave_s", weave, n))
		put(single("boundweave.other_s", other, n))
		put(single("boundweave.intervals", e("intervals_total"), n))
		put(single("boundweave.bound_rounds", e("bound_rounds_total"), n))
		put(single("event.weave_events", e("weave_events_total"), n))
		put(single("event.stall_s", e("stall_seconds_total"), n))
		put(single("event.horizon_parks", e("horizon_parks_total"), n))
		put(single("event.domain_wakes", e("domain_wakes_total"), n))
		put(single("engine.pool_wakes", e("pool_wakes_total"), n))
		if ev := e("weave_events_total"); ev > 0 {
			put(single("event.ns_per_event", weave*1e9/ev, n))
			put(single("event.handoffs_per_event", e("cross_handoffs_total")/ev, n))
		}
		if iv := e("intervals_total"); iv > 0 {
			put(single("boundweave.ns_per_interval", (bound+weave)*1e9/iv, n))
		}
		res.note("phase A %.3f s = bound %.0f%% + weave %.0f%% + other %.0f%% (construction, Reset, HTTP+JSON, idle)",
			run.phaseAS, bound/run.phaseAS*100, weave/run.phaseAS*100, other/run.phaseAS*100)
		res.PerLayer = inOrder(perLayerDefs, got)
	}
	return res, nil
}
