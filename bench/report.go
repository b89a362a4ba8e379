package main

import (
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"os"
	"slices"
	"strings"
)

// metric is one reported number: the median of its samples with their
// quartiles, or a figure over a whole window (a rate, a percentile) with the
// quartiles of the same figure over the window's one-second parts.
type metric struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
	N     int     `json:"n"`
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
}

// newMetric reports the median and quartiles of samples under a catalog name.
func newMetric(name string, samples []float64) metric {
	q1, q2, q3 := quartiles(samples)
	return metric{Name: name, Unit: unitOf(name), Value: q2, N: len(samples), Q1: q1, Q3: q3}
}

// single reports one value computed over n samples that has no spread to
// report: a count, or a figure that repeats exactly on fixed inputs.
func single(name string, v float64, n int) metric {
	return metric{Name: name, Unit: unitOf(name), Value: v, N: n, Q1: v, Q3: v}
}

// overParts reports a figure v computed over the n samples of a whole window,
// with the quartiles of the same figure computed over each part of the
// window: the spread -compare needs to tell a move from noise.
func overParts(name string, v float64, n int, parts []float64) metric {
	q1, _, q3 := quartiles(parts)
	return metric{Name: name, Unit: unitOf(name), Value: v, N: n, Q1: q1, Q3: q3}
}

// workloadResult is one workload's section of the result file.
type workloadResult struct {
	Name      string         `json:"name"`
	Why       string         `json:"why"`
	RepSize   map[string]int `json:"repSize"`
	Attempted int            `json:"attempted"`
	Failed    int            `json:"failed"`
	EndToEnd  []metric       `json:"endToEnd,omitempty"`
	PerLayer  []metric       `json:"perLayer,omitempty"`
	// Signature is the simulated outcome of a workload inside the determinism
	// envelope: bit-equal across reps, so two commits compare exactly.
	Signature *signature `json:"signature,omitempty"`
	Notes     []string   `json:"notes,omitempty"`
	// padding holds the end-to-end metrics that are not defined on this
	// workload. Only the driver's one-line result carries them (see
	// driverLine); they are not printed, stored or compared.
	padding []metric
}

// setEndToEnd files the defined metrics of all under EndToEnd and the rest
// under padding.
func (w *workloadResult) setEndToEnd(all []metric) {
	for _, m := range all {
		if definedOn(m.Name, w.Name) {
			w.EndToEnd = append(w.EndToEnd, m)
		} else {
			w.padding = append(w.padding, m)
		}
	}
}

func (w *workloadResult) correct() bool { return w.Failed == 0 && w.Attempted > 0 }

func (w *workloadResult) note(format string, args ...any) {
	w.Notes = append(w.Notes, fmt.Sprintf(format, args...))
}

// resultFile is what -out writes: every workload's metrics plus where and
// from what they were measured.
type resultFile struct {
	Commit     string           `json:"commit"`
	Seed       uint64           `json:"seed"`
	NProc      int              `json:"nproc"`
	GOMAXPROCS int              `json:"gomaxprocs"`
	GoVersion  string           `json:"goVersion"`
	Seconds    float64          `json:"seconds"`
	Workloads  []workloadResult `json:"workloads"`
}

func writeResultFile(path string, r *resultFile) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readResultFile(path string) (*resultFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r resultFile
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// printWorkload writes one workload's human-readable section.
func printWorkload(out io.Writer, w *workloadResult) {
	fmt.Fprintf(out, "\n== %s: %s\n", w.Name, w.Why)
	var sizes []string
	for _, k := range slices.Sorted(maps.Keys(w.RepSize)) {
		sizes = append(sizes, fmt.Sprintf("%s=%d", k, w.RepSize[k]))
	}
	fmt.Fprintf(out, "   rep size: %s\n", strings.Join(sizes, " "))
	failedFrac := 0.0
	if w.Attempted > 0 {
		failedFrac = float64(w.Failed) / float64(w.Attempted)
	}
	fmt.Fprintf(out, "   failed_frac %.4f (%d of %d attempts)\n", failedFrac, w.Failed, w.Attempted)
	printMetrics(out, "end-to-end (tracing off)", w.EndToEnd)
	printMetrics(out, "per-layer (traced pass and layer kernels)", w.PerLayer)
	if w.Signature != nil {
		fmt.Fprintf(out, "   signature %+v\n", *w.Signature)
	}
	for _, n := range w.Notes {
		fmt.Fprintf(out, "   note: %s\n", n)
	}
}

func printMetrics(out io.Writer, title string, ms []metric) {
	if len(ms) == 0 {
		return
	}
	fmt.Fprintf(out, "   %s\n", title)
	fmt.Fprintf(out, "     %-36s %14s  %-12s %6s  %s\n", "metric", "median", "unit", "n", "q1..q3")
	for _, m := range ms {
		fmt.Fprintf(out, "     %-36s %14.6g  %-12s %6d  %.6g..%.6g\n", m.Name, m.Value, m.Unit, m.N, m.Q1, m.Q3)
	}
}

// driverLine is the one-line JSON object the benchmark's driver reads as the
// last line of standard output. The driver's contract wants every end_to_end
// metric of BENCHMARK.json, none of them 0, from every workload with -trace 0
// and every per_layer metric with -trace 1, so here, and only here, a
// workload's own metrics are joined by its padding, and a per-layer metric
// that does not apply to it reads 0.
func driverLine(w *workloadResult, traced bool) (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: w.correct(), Attempted: w.Attempted, Failed: w.Failed, Metrics: make(map[string]value)}
	defs, ms := endToEndDefs, append(slices.Clone(w.EndToEnd), w.padding...)
	if traced {
		defs, ms = perLayerDefs, w.PerLayer
	}
	for _, d := range defs {
		line.Metrics[d.name] = value{Unit: d.unit}
	}
	for _, m := range ms {
		line.Metrics[m.Name] = value{Value: m.Value, Unit: m.Unit}
	}
	b, err := json.Marshal(line)
	return string(b), err
}
