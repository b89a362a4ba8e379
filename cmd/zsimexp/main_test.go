package main

// End-to-end tests for the zsimexp CLI, driven through cliMain so the full
// flag-parse/run/print path (including the -progress heartbeat) runs
// in-process.

import (
	"bytes"
	"os"
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

// TestAllRunsEveryExperiment dispatches "all" at tiny scale, so every
// registered experiment runs end to end through the CLI and prints its title.
func TestAllRunsEveryExperiment(t *testing.T) {
	titles := map[string]string{
		"table2":      "Table 2: validation configuration",
		"table3":      "Table 3: tiled chip configuration",
		"fig2":        "Figure 2: fraction of accesses",
		"fig5":        "Validation vs golden reference",
		"fig6perf":    "Validation vs golden reference",
		"fig6speedup": "Figure 6 (middle)",
		"fig6stream":  "Figure 6 (right)",
		"table4":      "Table 4: simulation performance, 32-core chip",
		"fig7":        "Figure 7: single-thread",
		"fig8":        "Figure 8: simulator speedup vs host threads (32-core target)",
		"fig9":        "Figure 9: hmean simulation MIPS",
		"intervals":   "Interval-length sensitivity",
		"meshhotspot": "Mesh hotspot: zero-load vs contended NoC (32 cores",
		"oversub":     "Oversubscribed client-server",
	}
	var stdout, stderr bytes.Buffer
	code := cliMain([]string{"-scale", "0.02", "-max-cores", "32", "-host-threads", "1", "-quiet", "all"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("cliMain exit %d\nstderr: %s", code, stderr.String())
	}
	for _, name := range experimentNames() {
		title, ok := titles[name]
		if !ok {
			t.Errorf("experiment %q has no expected title in this test", name)
		} else if !strings.Contains(stdout.String(), title) {
			t.Errorf("%s: output lacks %q", name, title)
		}
	}
}

// TestDocListsExperiments keeps the package doc's experiment list equal to
// the registry.
func TestDocListsExperiments(t *testing.T) {
	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	var list []string
	in := false
	for _, line := range strings.Split(string(src), "\n") {
		text, isComment := strings.CutPrefix(line, "// ")
		if isComment && strings.HasPrefix(text, "Experiments: ") {
			in, text = true, strings.TrimPrefix(text, "Experiments: ")
		}
		if !in {
			continue
		}
		if !isComment || text == "" {
			break
		}
		list = append(list, strings.TrimSuffix(text, "."))
	}
	want := strings.Join(experimentNames(), ", ")
	if got := strings.Join(list, " "); got != want {
		t.Fatalf("main.go doc lists experiments\n  %s\nregistry has\n  %s", got, want)
	}
}
