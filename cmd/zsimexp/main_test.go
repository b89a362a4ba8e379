package main

// End-to-end tests for the zsimexp CLI, driven through cliMain so the full
// flag-parse/run/print path (including the -progress heartbeat) runs
// in-process.

import (
	"bytes"
	"strings"
	"testing"
)

func TestProgressHeartbeatEmitted(t *testing.T) {
	var stdout, stderr bytes.Buffer
	// A cheap multi-run experiment at test scale; -progress-interval is tiny
	// so periodic lines can land too, but the guaranteed line is the final
	// one each run emits at stop.
	code := cliMain([]string{"-scale", "0.02", "-max-cores", "16", "-host-threads", "2",
		"-progress", "-progress-interval", "5ms", "fig6stream"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("cliMain exit %d\nstderr: %s", code, stderr.String())
	}
	if stdout.Len() == 0 {
		t.Fatal("experiment printed nothing")
	}
	lines := 0
	for _, line := range strings.Split(stderr.String(), "\n") {
		if strings.Contains(line, "progress:") {
			lines++
			for _, field := range []string{"phase=", "intervals=", "cycles=", "sim-MIPS="} {
				if !strings.Contains(line, field) {
					t.Errorf("heartbeat line missing %s: %q", field, line)
				}
			}
		}
	}
	if lines == 0 {
		t.Fatalf("no heartbeat lines on stderr with -progress:\n%s", stderr.String())
	}
}

func TestProgressDisabledByDefault(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := cliMain([]string{"-scale", "0.02", "-max-cores", "16", "-host-threads", "2",
		"-progress=false", "fig6stream"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("cliMain exit %d\nstderr: %s", code, stderr.String())
	}
	if strings.Contains(stderr.String(), "progress:") {
		t.Fatalf("heartbeat lines on stderr without -progress:\n%s", stderr.String())
	}
}

func TestUsageErrors(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := cliMain(nil, &stdout, &stderr); code != 2 {
		t.Errorf("no experiment: exit %d, want 2", code)
	}
	if code := cliMain([]string{"no-such-experiment"}, &stdout, &stderr); code != 1 {
		t.Errorf("unknown experiment: exit %d, want 1", code)
	}
	// The retired weave flags are unknown flags now.
	for _, flag := range []string{"-weave-mode", "-domains"} {
		if code := cliMain([]string{flag, "1", "fig6stream"}, &stdout, &stderr); code != 2 {
			t.Errorf("%s: exit %d, want 2", flag, code)
		}
	}
}
