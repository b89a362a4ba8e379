package boundweave

import (
	"fmt"
	"sync"

	"zsim/internal/config"
	"zsim/internal/runctl"
	"zsim/internal/trace"
	"zsim/internal/virt"
)

// InterferenceProfiler measures, for one or more reordering windows (interval
// lengths), the fraction of memory accesses that suffer path-altering
// interference, reproducing the characterization of Figure 2. Two accesses
// interfere in a path-altering way when they touch the same cache line within
// the same interval, come from different cores, and at least one of them is a
// write (two read hits to the same line are explicitly excluded by the
// paper's definition). Eviction-induced interference is not counted here; the
// paper reports it is negligible for realistic associativities.
//
// Options.Profiler installs it as a cache.AccessObserver on every core, so it
// sees the access stream before the hierarchy reorders anything. It is safe
// for concurrent use by all bound-phase worker threads.
type InterferenceProfiler struct {
	mu      sync.Mutex
	windows []window

	Total uint64
	// Interfering[i] counts the interfering accesses under the i-th window.
	Interfering []uint64
}

// window is one reordering window: its length in cycles and a per-line
// summary of the current interval's accesses. Entries are reset lazily
// whenever an access from a newer interval arrives.
type window struct {
	length uint64
	lines  map[uint64]*lineInfo
}

type lineInfo struct {
	interval  uint64
	firstCore int
	multiCore bool
	anyWrite  bool
}

// NewInterferenceProfiler creates a profiler with one window per given length
// in cycles (the paper sweeps 1K, 10K and 100K); a zero length means 1000.
func NewInterferenceProfiler(lengths ...uint64) *InterferenceProfiler {
	p := &InterferenceProfiler{Interfering: make([]uint64, len(lengths))}
	for _, l := range lengths {
		if l == 0 {
			l = 1000
		}
		p.windows = append(p.windows, window{length: l, lines: make(map[uint64]*lineInfo)})
	}
	return p
}

// ObserveAccess implements cache.AccessObserver.
func (p *InterferenceProfiler) ObserveAccess(lineAddr uint64, write bool, coreID int, cycle uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.Total++
	for i := range p.windows {
		if p.windows[i].observe(lineAddr, write, coreID, cycle) {
			p.Interfering[i]++
		}
	}
}

// observe records one access in the window and reports whether it interferes.
func (w *window) observe(lineAddr uint64, write bool, coreID int, cycle uint64) bool {
	interval := cycle / w.length
	li, ok := w.lines[lineAddr]
	if !ok || li.interval != interval {
		if !ok {
			li = &lineInfo{}
			w.lines[lineAddr] = li
		}
		*li = lineInfo{interval: interval, firstCore: coreID, anyWrite: write}
		return false
	}
	// Same line, same interval.
	sameCore := li.firstCore == coreID && !li.multiCore
	if !sameCore {
		li.multiCore = true
	}
	if write {
		li.anyWrite = true
	}
	return !sameCore && li.anyWrite
}

// Fractions returns interfering accesses / total accesses, one per window.
func (p *InterferenceProfiler) Fractions() []float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]float64, len(p.windows))
	if p.Total == 0 {
		return out
	}
	for i, n := range p.Interfering {
		out[i] = float64(n) / float64(p.Total)
	}
	return out
}

// Profile runs w to completion on a system built from cfg, with the profiler
// observing every core, and fails if the run stops abnormally.
func (p *InterferenceProfiler) Profile(cfg *config.System, w *trace.Workload, hostThreads int) error {
	sys, err := BuildSystem(cfg)
	if err != nil {
		return err
	}
	sched := virt.NewScheduler(cfg.NumCores)
	sched.AddWorkload(w)
	sim := NewSimulator(sys, sched, Options{HostThreads: hostThreads, Seed: 1, Profiler: p})
	sim.Run()
	if sim.Reason != runctl.ReasonNone {
		return fmt.Errorf("profiling on %s: run %s at interval %d", cfg.Name, sim.Reason, sim.Intervals)
	}
	return nil
}
