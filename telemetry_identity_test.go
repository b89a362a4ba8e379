package zsim

// Telemetry perturbation tests at the facade level: the observability layer's
// cardinal rule is that observation never changes simulation results. A
// fixed-seed run with a trace sink attached and its probe scraped continuously
// from another goroutine must produce a bit-identical Result to an unobserved
// run.

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

func identityRun(t *testing.T, observe bool) (*Result, *Simulator, *TraceSink) {
	t.Helper()
	sim, err := New(SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	params := DefaultWorkloadParams()
	params.BlocksPerThread = 4000 // long enough that the scraper observes mid-run snapshots
	sim.AddWorkload("ident", params, 4)
	// One bound worker: the threads share data, and with two the run leaves
	// the determinism envelope (DESIGN.md), so two unobserved runs could
	// already differ.
	sim.SetHostThreads(1)
	sim.SetSeed(11)

	var sink *TraceSink
	stop := make(chan struct{})
	scraped := make(chan int)
	if observe {
		sink = NewTraceSink(0)
		sim.SetTrace(sink)
		go func() {
			n := 0
			for {
				select {
				case <-stop:
					scraped <- n
					return
				default:
					snap := sim.Probe().Snapshot()
					if snap.Intervals > 0 {
						n++
					}
				}
			}
		}()
	}
	res, err := sim.Run()
	if observe {
		close(stop)
		if n := <-scraped; n == 0 {
			t.Log("scraper never saw a mid-run snapshot (run too fast); identity still checked")
		}
	}
	if err != nil {
		t.Fatalf("run (observe=%v): %v", observe, err)
	}
	return res, sim, sink
}

func TestTelemetryDoesNotPerturbResults(t *testing.T) {
	plain, _, _ := identityRun(t, false)
	observed, sim, sink := identityRun(t, true)

	requireIdentical(t, "observed vs plain", plain, observed)

	// The probe ends the run in phase "done" with counters matching the result.
	snap := sim.Probe().Snapshot()
	if snap.Phase != "done" {
		t.Errorf("post-run phase = %q, want done", snap.Phase)
	}
	if snap.Intervals != observed.Intervals {
		t.Errorf("probe intervals = %d, result %d", snap.Intervals, observed.Intervals)
	}
	if snap.Instrs != observed.Metrics.Instrs {
		t.Errorf("probe instrs = %d, metrics %d", snap.Instrs, observed.Metrics.Instrs)
	}

	// The trace sink recorded phase slices and exports valid JSON.
	if sink.Len() == 0 {
		t.Fatal("trace sink recorded nothing")
	}
	var buf bytes.Buffer
	if err := sink.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("trace export is not valid JSON: %v", err)
	}
	if len(events) < sink.Len() {
		t.Errorf("export has %d events for %d recorded slices", len(events), sink.Len())
	}
}

// TestHeartbeatFacade: the facade's heartbeat helper emits at least one line
// for any run, however short, and none after stop.
func TestHeartbeatFacade(t *testing.T) {
	sim, err := New(SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	params := DefaultWorkloadParams()
	params.BlocksPerThread = 100
	sim.AddWorkload("hb", params, 2)
	sim.SetHostThreads(1)

	var buf bytes.Buffer
	stop := StartHeartbeat(&buf, sim.Probe(), "t: ", time.Hour)
	if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	stop()
	out := buf.String()
	if !bytes.Contains([]byte(out), []byte("t: progress:")) || !bytes.Contains([]byte(out), []byte("(done)")) {
		t.Fatalf("heartbeat final line missing: %q", out)
	}
}
