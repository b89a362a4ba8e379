package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// benchSpec is the slice of BENCHMARK.json this package reads: each
// end-to-end metric's direction and regression bound.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// Verdicts of one workload x metric pairing.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// judge compares b against base a under a metric's bound. worse is how much
// worse b's median is, as a share of a's; noise is the wider of the two
// files' own spreads (quartile distance over median). A move beyond the bound
// is a regression when it is also beyond the noise. Otherwise, with noise
// wider than the bound, neither a regression of the bound's size nor its
// absence can be told: unresolved.
func judge(a, b metric, m specMetric) (worse float64, verdict string) {
	if a.Value == 0 {
		return 0, verdictUnresolved
	}
	worse = (b.Value - a.Value) / a.Value
	if m.Better == "higher" {
		worse = -worse
	}
	noise := max(spread(a.Q1, a.Value, a.Q3), spread(b.Q1, b.Value, b.Q3))
	switch {
	case worse > m.Bound && worse > noise:
		return worse, verdictRegressed
	case noise > m.Bound:
		return worse, verdictUnresolved
	}
	return worse, verdictOK
}

// compareFiles prints, per workload x end-to-end metric, both files' medians
// and quartiles, the ratio b/a, and the verdict under BENCHMARK.json's
// bounds. It returns the process exit code: non-zero on any regression, on a
// changed bit-equal signature, or when the two files cannot be compared.
func compareFiles(out io.Writer, specPath, pathA, pathB string) int {
	spec, err := loadSpec(specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	a, err := readResultFile(pathA)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	b, err := readResultFile(pathB)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	if a.GOMAXPROCS != b.GOMAXPROCS {
		fmt.Fprintf(os.Stderr, "bench: %s ran at GOMAXPROCS=%d and %s at %d: not comparable\n", pathA, a.GOMAXPROCS, pathB, b.GOMAXPROCS)
		return 2
	}
	fmt.Fprintf(out, "base a = %s (commit %s, seed %d)\n     b = %s (commit %s, seed %d)\nratio = b/a; worse = share of a's median by which b is worse\n",
		pathA, a.Commit, a.Seed, pathB, b.Commit, b.Seed)
	regressed := false
	for _, wa := range a.Workloads {
		var wb *workloadResult
		for i := range b.Workloads {
			if b.Workloads[i].Name == wa.Name {
				wb = &b.Workloads[i]
			}
		}
		if wb == nil {
			continue
		}
		fmt.Fprintf(out, "\n%s\n  %-24s %12s %25s %12s %25s %8s %8s  %s\n", wa.Name, "metric", "a median", "a q1..q3", "b median", "b q1..q3", "ratio", "worse", "verdict")
		for _, m := range spec.EndToEnd {
			ma, okA := findMetric(wa.EndToEnd, m.Name)
			mb, okB := findMetric(wb.EndToEnd, m.Name)
			if !okA || !okB {
				continue
			}
			worse, verdict := judge(ma, mb, m)
			regressed = regressed || verdict == verdictRegressed
			fmt.Fprintf(out, "  %-24s %12.6g %25s %12.6g %25s %8.4f %+7.2f%%  %s (bound %.0f%%)\n", m.Name,
				ma.Value, fmt.Sprintf("%.5g..%.5g", ma.Q1, ma.Q3), mb.Value, fmt.Sprintf("%.5g..%.5g", mb.Q1, mb.Q3),
				mb.Value/ma.Value, worse*100, verdict, m.Bound*100)
		}
		if wa.Failed != 0 || wb.Failed != 0 {
			fmt.Fprintf(out, "  failed: a %d of %d, b %d of %d\n", wa.Failed, wa.Attempted, wb.Failed, wb.Attempted)
			regressed = regressed || wb.Failed*wa.Attempted > wa.Failed*wb.Attempted
		}
		if wa.Signature != nil && wb.Signature != nil && a.Seed == b.Seed {
			if *wa.Signature == *wb.Signature {
				fmt.Fprintf(out, "  signature: bit-equal\n")
			} else {
				fmt.Fprintf(out, "  signature: DIFFERS\n    a %+v\n    b %+v\n", *wa.Signature, *wb.Signature)
				regressed = true
			}
		}
	}
	if regressed {
		return 1
	}
	return 0
}

func findMetric(ms []metric, name string) (metric, bool) {
	for _, m := range ms {
		if m.Name == name {
			return m, true
		}
	}
	return metric{}, false
}
