package stats

import "math"

// Metrics holds the derived, per-run performance metrics that the paper's
// evaluation section reports: IPC, MPKI per cache level, MIPS of the
// simulator, and so on. The harness fills one Metrics per (workload, model)
// pair and the experiment tables are built from them.
type Metrics struct {
	Workload string
	Model    string

	Instrs     uint64  // simulated instructions (all cores)
	Uops       uint64  // simulated µops (all cores)
	Cycles     uint64  // simulated cycles (max across cores)
	CoreCycles uint64  // sum of per-core cycles (for utilization)
	Cores      int     // number of simulated cores that executed work
	HostNanos  int64   // wall-clock host time for the simulation, ns
	IPC        float64 // aggregate instructions per cycle
	UPC        float64 // aggregate µops per cycle

	L1IMPKI    float64
	L1DMPKI    float64
	L2MPKI     float64
	L3MPKI     float64
	BranchMPKI float64

	L1IMisses    uint64
	L1DMisses    uint64
	L2Misses     uint64
	L3Misses     uint64
	BranchMisses uint64

	MemReads  uint64
	MemWrites uint64

	SimMIPS float64 // simulated MIPS: Instrs / host seconds / 1e6
}

// Finalize computes the derived ratios from the raw counts. It must be called
// after the raw fields are filled in.
func (m *Metrics) Finalize() {
	if m.Cycles > 0 {
		m.IPC = float64(m.Instrs) / float64(m.Cycles)
		m.UPC = float64(m.Uops) / float64(m.Cycles)
	}
	ki := float64(m.Instrs) / 1000.0
	if ki > 0 {
		m.L1IMPKI = float64(m.L1IMisses) / ki
		m.L1DMPKI = float64(m.L1DMisses) / ki
		m.L2MPKI = float64(m.L2Misses) / ki
		m.L3MPKI = float64(m.L3Misses) / ki
		m.BranchMPKI = float64(m.BranchMisses) / ki
	}
	if m.HostNanos > 0 {
		m.SimMIPS = float64(m.Instrs) / (float64(m.HostNanos) / 1e9) / 1e6
	}
}

// PerfError returns the relative performance error of this run versus a
// reference run, (perf_this - perf_ref)/perf_ref, where perf = 1/time =
// IPC-rate for equal instruction counts. This is the paper's perf_error
// metric: positive means this model overestimates performance.
func (m *Metrics) PerfError(ref *Metrics) float64 {
	if ref.Cycles == 0 || m.Cycles == 0 {
		return 0
	}
	// For equal work, perf ∝ 1/cycles.
	perfThis := 1.0 / float64(m.Cycles)
	perfRef := 1.0 / float64(ref.Cycles)
	return (perfThis - perfRef) / perfRef
}

// MPKIError returns simulated - reference MPKI for the named cache level.
func (m *Metrics) MPKIError(ref *Metrics, level string) float64 {
	get := func(x *Metrics) float64 {
		switch level {
		case "l1i":
			return x.L1IMPKI
		case "l1d":
			return x.L1DMPKI
		case "l2":
			return x.L2MPKI
		case "l3":
			return x.L3MPKI
		case "branch":
			return x.BranchMPKI
		default:
			return 0
		}
	}
	return get(m) - get(ref)
}

// HMean returns the harmonic mean of the values; zero and negative values are
// skipped (they would otherwise make the mean undefined). The paper uses
// harmonic means of MIPS to aggregate simulator performance.
func HMean(vals []float64) float64 {
	var sum float64
	var n int
	for _, v := range vals {
		if v <= 0 {
			continue
		}
		sum += 1 / v
		n++
	}
	if n == 0 || sum == 0 {
		return 0
	}
	return float64(n) / sum
}

// MeanAbs returns the mean of absolute values (0 for an empty slice).
func MeanAbs(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	var sum float64
	for _, v := range vals {
		sum += math.Abs(v)
	}
	return sum / float64(len(vals))
}
