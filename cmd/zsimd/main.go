// Command zsimd is the zsim simulation daemon: an HTTP/JSON job service that
// runs bound-weave simulations through a bounded worker pool with per-job
// deadlines, cooperative cancellation, panic isolation and graceful drain.
//
// API (JSON bodies everywhere):
//
//	POST /jobs              submit a job; 202 + status, or 503 + Retry-After when shedding
//	GET  /jobs              list live and retained jobs
//	GET  /jobs/{id}         job status (410 once evicted by -retain, or if shed)
//	GET  /jobs/{id}/result  job result (409 until finished; partial metrics on failures; 410 once evicted)
//	POST /jobs/{id}/cancel  cancel a queued or running job (409 once finished, 410 once evicted)
//	POST /campaigns         submit a design-space sweep (base job × axes)
//	GET  /campaigns         list running and retained finished campaigns
//	GET  /campaigns/{id}    campaign progress + live aggregates (curves, percentiles; 410 once evicted by -retain)
//	POST /campaigns/{id}/cancel  stop a campaign; outstanding children are cancelled
//	GET  /results           query the rows of the retained jobs (?campaign= ?shape= ?outcome= ?job= ?limit=)
//	GET  /healthz           liveness plus queue/worker/pool/retention gauges
//	GET  /readyz            readiness (503 while draining)
//	GET  /metrics           Prometheus text exposition (plain text, not JSON)
//	GET  /debug/pprof/      net/http/pprof profiles (only with -pprof)
//
// A failed job's result carries the typed reason ("deadlocked", "cancelled",
// ...) and its partial metrics. The /healthz pool block's hits and misses give
// the hit rate; a pool size of 0 means pooling is off.
//
// The warm pool parks simulators between jobs and Resets one for each job of
// its shape. A job's hostThreads is part of that shape (a -prewarm config
// sets it as "hostThreads"). A parked simulator holds no goroutine: its
// bound-phase workers stop when its run returns, and one the pool discards
// or expires is simply dropped.
//
// Jobs are admitted by priority class ("high"/"normal"/"low"): campaign
// children default to low so sweeps cannot starve interactive jobs, and shed
// responses derive Retry-After from queue depth and observed job latency.
//
// A finished job or campaign stays addressable while it is among the newest
// -retain of its kind; after that its ID answers 410, and its one terminal
// audit record ("finish" carrying the job's result row, "campaign" carrying
// the final campaign status) is the archive. An ID never issued answers 404.
//
// SIGTERM/SIGINT stop admission, let in-flight jobs finish within -grace,
// then cooperatively cancel whatever remains (those jobs report partial
// metrics) and flush the audit log before exiting.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"zsim"
	"zsim/internal/serve"
)

// loadPrewarmConfigs reads a -prewarm file: one config object, or an array of
// them. Each config goes through the same strict decoding as -config files
// (unknown fields rejected).
func loadPrewarmConfigs(path string) ([]*zsim.Config, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("prewarm: %w", err)
	}
	trimmed := bytes.TrimLeft(data, " \t\r\n")
	dec := json.NewDecoder(bytes.NewReader(trimmed))
	dec.DisallowUnknownFields()
	var cfgs []*zsim.Config
	if len(trimmed) > 0 && trimmed[0] == '[' {
		err = dec.Decode(&cfgs)
	} else {
		cfg := new(zsim.Config)
		err = dec.Decode(cfg)
		cfgs = []*zsim.Config{cfg}
	}
	if err != nil {
		return nil, fmt.Errorf("prewarm %s: %w", path, err)
	}
	if len(cfgs) == 0 {
		return nil, fmt.Errorf("prewarm %s: no configs", path)
	}
	return cfgs, nil
}

func main() {
	os.Exit(run(os.Args[1:], os.Stderr, nil))
}

// run is main without the process-global bits, so the integration test can
// drive a real daemon (including its signal handling) in-process. onReady, if
// non-nil, receives the bound address once the server is accepting.
func run(args []string, stderr io.Writer, onReady func(net.Addr)) int {
	fs := flag.NewFlagSet("zsimd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr       = fs.String("addr", "127.0.0.1:8347", "listen address (use :0 for an ephemeral port)")
		workers    = fs.Int("workers", 1, "concurrent simulation workers")
		queueDepth = fs.Int("queue", 16, "admission queue depth (full queue sheds with 503)")
		jobTimeout = fs.Duration("job-timeout", 0, "default per-job wall-time budget (0 = unlimited)")
		grace      = fs.Duration("grace", 10*time.Second, "shutdown grace period before in-flight jobs are cancelled")
		auditPath  = fs.String("audit", "", "append-only JSONL audit log file (empty = disabled)")
		poolSize   = fs.Int("pool-size", 8, "warm-simulator pool: total simulators retained across shapes (0 = disabled)")
		poolShape  = fs.Int("pool-per-shape", 2, "warm-simulator pool: simulators retained per configuration shape")
		poolExpiry = fs.Duration("pool-idle-expiry", 0, "close pooled simulators idle longer than this (0 = never)")
		prewarm    = fs.String("prewarm", "", "JSON file with a config (or array of configs) to pre-build warm simulators for at startup")
		retain     = fs.Int("retain", 1024, "finished jobs and finished campaigns each kept addressable via GET /jobs/{id} and /campaigns/{id}, and finished jobs' rows via GET /results (older ones answer 410; the audit log keeps them; -1 = unlimited)")
		campPoints = fs.Int("campaign-points", 0, "max points per campaign expansion (0 = default 10000)")
		pprofOn    = fs.Bool("pprof", false, "expose net/http/pprof handlers under /debug/pprof/")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	var auditW io.Writer
	if *auditPath != "" {
		f, err := os.OpenFile(*auditPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fmt.Fprintln(stderr, "zsimd:", err)
			return 1
		}
		defer f.Close()
		auditW = f
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(stderr, "zsimd:", err)
		return 1
	}
	srv := serve.New(serve.Options{
		Workers:           *workers,
		QueueDepth:        *queueDepth,
		JobTimeout:        *jobTimeout,
		Audit:             auditW,
		PoolSize:          *poolSize,
		PoolPerShape:      *poolShape,
		PoolIdleExpiry:    *poolExpiry,
		RetainJobs:        *retain,
		MaxCampaignPoints: *campPoints,
		Pprof:             *pprofOn,
	})
	if *prewarm != "" {
		cfgs, err := loadPrewarmConfigs(*prewarm)
		if err == nil {
			var n int
			n, err = srv.Prewarm(cfgs)
			fmt.Fprintf(stderr, "zsimd: prewarmed %d/%d configs\n", n, len(cfgs))
		}
		if err != nil {
			fmt.Fprintln(stderr, "zsimd:", err)
			srv.Shutdown(0)
			return 1
		}
	}
	httpSrv := &http.Server{Handler: srv}

	fmt.Fprintf(stderr, "zsimd: listening on %s (workers=%d queue=%d pool=%d)\n", ln.Addr(), *workers, *queueDepth, *poolSize)
	if onReady != nil {
		onReady(ln.Addr())
	}

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigCh)

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()

	select {
	case err := <-errCh:
		fmt.Fprintln(stderr, "zsimd:", err)
		srv.Shutdown(0)
		return 1
	case sig := <-sigCh:
		fmt.Fprintf(stderr, "zsimd: received %v, draining (grace %s)\n", sig, *grace)
		// Stop accepting connections first, then drain the job queue. The
		// HTTP close is immediate (job execution is asynchronous, handlers
		// are short-lived); the job drain honours the grace period.
		_ = httpSrv.Close()
		srv.Shutdown(*grace)
		fmt.Fprintln(stderr, "zsimd: drained, exiting")
		return 0
	}
}
