package telemetry

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// This file is a minimal hand-rolled Prometheus text-exposition writer (the
// classic text format, version 0.0.4). The repo takes no dependencies, and the
// subset zsimd needs — counters, gauges, and fixed-bucket histograms with a
// handful of labels — is a few dozen lines, so the format is written directly
// rather than pulled in via client_golang.

// Label is one name="value" pair on a sample.
type Label struct {
	Name  string
	Value string
}

// PromWriter accumulates one exposition document. Families must be declared
// (Help) before their samples; samples are emitted in call order, which the
// format allows as long as each family's samples are contiguous. Write errors
// are not reported: render into a buffer and send that.
type PromWriter struct {
	w io.Writer
}

// NewPromWriter wraps w.
func NewPromWriter(w io.Writer) *PromWriter { return &PromWriter{w: w} }

func (pw *PromWriter) printf(format string, args ...any) {
	_, _ = fmt.Fprintf(pw.w, format, args...)
}

// Family emits the # HELP / # TYPE header for a metric family. typ is
// "counter", "gauge", or "histogram".
func (pw *PromWriter) Family(name, typ, help string) {
	pw.printf("# HELP %s %s\n# TYPE %s %s\n", name, escapeHelp(help), name, typ)
}

// Sample emits one sample line: name{labels} value.
func (pw *PromWriter) Sample(name string, labels []Label, value float64) {
	pw.printf("%s%s %s\n", name, formatLabels(labels), formatFloat(value))
}

// UintSample emits one sample line with an integer value (exact, no float
// round-trip).
func (pw *PromWriter) UintSample(name string, labels []Label, value uint64) {
	pw.printf("%s%s %d\n", name, formatLabels(labels), value)
}

func formatLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Name)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(v string) string {
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`, `"`, `\"`)
	return r.Replace(v)
}

func escapeHelp(v string) string {
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	return r.Replace(v)
}

func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// DefaultLatencyBuckets covers job latencies from 1 ms to 60 s; jobs beyond a
// minute land in +Inf. Bounds are in seconds, ascending.
var DefaultLatencyBuckets = []float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60,
}

// Histogram is a fixed-bucket latency histogram. It has no lock of its own:
// its owner serializes Observe and Write. Observations are in seconds.
type Histogram struct {
	bounds []float64 // ascending upper bounds, excluding +Inf
	counts []uint64  // len(bounds)+1; last is the +Inf bucket
	sum    float64
	total  uint64
}

// NewHistogram builds a histogram over the given ascending bucket bounds
// (DefaultLatencyBuckets when nil).
func NewHistogram(bounds []float64) *Histogram {
	if bounds == nil {
		bounds = DefaultLatencyBuckets
	}
	return &Histogram{bounds: bounds, counts: make([]uint64, len(bounds)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i]++
	h.sum += v
	h.total++
}

// Write emits the histogram's _bucket/_sum/_count samples under name with the
// given base labels (the "le" label is appended per bucket).
func (h *Histogram) Write(pw *PromWriter, name string, labels []Label) {
	lbls := make([]Label, len(labels), len(labels)+1)
	copy(lbls, labels)
	var cum uint64
	for i, bound := range h.bounds {
		cum += h.counts[i]
		pw.UintSample(name+"_bucket", append(lbls, Label{"le", formatFloat(bound)}), cum)
	}
	cum += h.counts[len(h.bounds)]
	pw.UintSample(name+"_bucket", append(lbls, Label{"le", "+Inf"}), cum)
	pw.Sample(name+"_sum", labels, h.sum)
	pw.UintSample(name+"_count", labels, h.total)
}
