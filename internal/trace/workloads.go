package trace

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"sync"
)

// This file is the workload registry: it maps the benchmark names used in the
// paper's evaluation (SPEC CPU2006, PARSEC, SPLASH-2, SPEC OMP2001, STREAM)
// to behavioural parameter sets. The parameters are chosen to place each
// synthetic workload in the same behavioural regime as the real benchmark
// (compute-bound vs memory-bound, streaming vs pointer-chasing, branchy vs
// regular, lock-limited vs barrier-limited), which is what determines the
// shape of every figure and table in the evaluation. Absolute IPC/MPKI values
// are not expected to match the real binaries; relative behaviour is.

// specCPUParams returns the parameter sets for the 29 SPEC CPU2006-like
// single-threaded workloads used for Figure 5 and Figure 7.
func specCPUParams() map[string]Params {
	base := DefaultParams()
	base.BlocksPerThread = 20000
	base.StaticBlocks = 512

	mk := func(mod func(*Params)) Params {
		p := base
		mod(&p)
		return p
	}
	kb := func(k int) uint64 { return uint64(k) * 1024 }
	mb := func(m int) uint64 { return uint64(m) * 1024 * 1024 }

	return map[string]Params{
		// Integer, compute-bound, branchy.
		"perlbench": mk(func(p *Params) {
			p.WorkingSet = kb(700)
			p.MemFraction = 0.35
			p.BranchRandomFrac = 0.08
			p.StaticBlocks = 2048
		}),
		"bzip2": mk(func(p *Params) {
			p.WorkingSet = mb(8)
			p.MemFraction = 0.32
			p.BranchRandomFrac = 0.12
			p.StridedFraction = 0.5
		}),
		"gcc": mk(func(p *Params) {
			p.WorkingSet = mb(16)
			p.MemFraction = 0.38
			p.BranchRandomFrac = 0.1
			p.StaticBlocks = 4096
		}),
		"mcf": mk(func(p *Params) {
			p.WorkingSet = mb(256)
			p.MemFraction = 0.38
			p.StridedFraction = 0.1
			p.DependentLoads = true
			p.BranchRandomFrac = 0.12
			p.ILP = 2
		}),
		"gobmk": mk(func(p *Params) {
			p.WorkingSet = kb(256)
			p.MemFraction = 0.3
			p.BranchRandomFrac = 0.15
			p.StaticBlocks = 2048
		}),
		"hmmer": mk(func(p *Params) {
			p.WorkingSet = kb(128)
			p.MemFraction = 0.45
			p.StridedFraction = 0.95
			p.ILP = 4
			p.BranchRandomFrac = 0.02
		}),
		"sjeng": mk(func(p *Params) {
			p.WorkingSet = mb(170)
			p.MemFraction = 0.25
			p.BranchRandomFrac = 0.14
			p.StridedFraction = 0.2
		}),
		"libquantum": mk(func(p *Params) {
			p.WorkingSet = mb(64)
			p.MemFraction = 0.3
			p.StridedFraction = 0.99
			p.ILP = 4
			p.BranchRandomFrac = 0.01
		}),
		"h264ref": mk(func(p *Params) { p.WorkingSet = kb(600); p.MemFraction = 0.4; p.StridedFraction = 0.85; p.ILP = 4 }),
		"omnetpp": mk(func(p *Params) {
			p.WorkingSet = mb(128)
			p.MemFraction = 0.35
			p.StridedFraction = 0.15
			p.DependentLoads = true
			p.BranchRandomFrac = 0.1
		}),
		"astar": mk(func(p *Params) {
			p.WorkingSet = mb(24)
			p.MemFraction = 0.33
			p.StridedFraction = 0.2
			p.DependentLoads = true
			p.BranchRandomFrac = 0.12
		}),
		"xalancbmk": mk(func(p *Params) {
			p.WorkingSet = mb(64)
			p.MemFraction = 0.36
			p.StridedFraction = 0.25
			p.DependentLoads = true
			p.BranchRandomFrac = 0.09
			p.StaticBlocks = 4096
		}),
		// Floating point.
		"bwaves": mk(func(p *Params) {
			p.WorkingSet = mb(400)
			p.MemFraction = 0.42
			p.StridedFraction = 0.97
			p.FPFraction = 0.7
			p.ILP = 4
			p.BranchRandomFrac = 0.01
		}),
		"gamess": mk(func(p *Params) {
			p.WorkingSet = kb(300)
			p.MemFraction = 0.3
			p.FPFraction = 0.6
			p.ILP = 4
			p.BranchRandomFrac = 0.03
		}),
		"milc": mk(func(p *Params) {
			p.WorkingSet = mb(380)
			p.MemFraction = 0.4
			p.StridedFraction = 0.9
			p.FPFraction = 0.65
			p.ILP = 3
		}),
		"zeusmp": mk(func(p *Params) {
			p.WorkingSet = mb(128)
			p.MemFraction = 0.35
			p.StridedFraction = 0.9
			p.FPFraction = 0.6
			p.ILP = 4
		}),
		"gromacs": mk(func(p *Params) {
			p.WorkingSet = mb(4)
			p.MemFraction = 0.32
			p.FPFraction = 0.6
			p.ILP = 4
			p.StridedFraction = 0.8
		}),
		"cactusADM": mk(func(p *Params) {
			p.WorkingSet = mb(160)
			p.MemFraction = 0.45
			p.StridedFraction = 0.9
			p.FPFraction = 0.7
			p.ILP = 3
		}),
		"leslie3d": mk(func(p *Params) {
			p.WorkingSet = mb(120)
			p.MemFraction = 0.45
			p.StridedFraction = 0.92
			p.FPFraction = 0.7
			p.ILP = 3
		}),
		"namd": mk(func(p *Params) {
			p.WorkingSet = kb(700)
			p.MemFraction = 0.3
			p.FPFraction = 0.7
			p.ILP = 5
			p.BranchRandomFrac = 0.01
		}),
		"dealII": mk(func(p *Params) {
			p.WorkingSet = mb(12)
			p.MemFraction = 0.35
			p.FPFraction = 0.55
			p.StridedFraction = 0.6
			p.BranchRandomFrac = 0.04
		}),
		"soplex": mk(func(p *Params) {
			p.WorkingSet = mb(250)
			p.MemFraction = 0.4
			p.StridedFraction = 0.4
			p.FPFraction = 0.5
			p.BranchRandomFrac = 0.06
		}),
		"povray": mk(func(p *Params) {
			p.WorkingSet = kb(200)
			p.MemFraction = 0.3
			p.FPFraction = 0.6
			p.ILP = 4
			p.BranchRandomFrac = 0.06
		}),
		"calculix": mk(func(p *Params) {
			p.WorkingSet = mb(20)
			p.MemFraction = 0.33
			p.FPFraction = 0.65
			p.StridedFraction = 0.85
			p.ILP = 4
		}),
		"GemsFDTD": mk(func(p *Params) {
			p.WorkingSet = mb(700)
			p.MemFraction = 0.45
			p.StridedFraction = 0.9
			p.FPFraction = 0.7
		}),
		"tonto": mk(func(p *Params) { p.WorkingSet = mb(2); p.MemFraction = 0.32; p.FPFraction = 0.6; p.ILP = 4 }),
		"lbm": mk(func(p *Params) {
			p.WorkingSet = mb(400)
			p.MemFraction = 0.48
			p.StridedFraction = 0.98
			p.FPFraction = 0.6
			p.ILP = 4
			p.BranchRandomFrac = 0.005
		}),
		"wrf": mk(func(p *Params) {
			p.WorkingSet = mb(110)
			p.MemFraction = 0.38
			p.StridedFraction = 0.85
			p.FPFraction = 0.6
		}),
		"sphinx3": mk(func(p *Params) {
			p.WorkingSet = mb(40)
			p.MemFraction = 0.4
			p.StridedFraction = 0.7
			p.FPFraction = 0.5
			p.BranchRandomFrac = 0.05
		}),
	}
}

// multiThreadedParams returns the parameter sets for the multithreaded
// workloads used in Figures 2, 6 and Table 4: PARSEC, SPLASH-2, SPEC OMP2001
// and STREAM.
func multiThreadedParams() map[string]Params {
	base := DefaultParams()
	base.BlocksPerThread = 12000
	base.ScaleWork = false
	base.SharedWorkingSet = 8 << 20
	base.SharedFraction = 0.1

	mk := func(mod func(*Params)) Params {
		p := base
		mod(&p)
		return p
	}
	mb := func(m int) uint64 { return uint64(m) * 1024 * 1024 }
	kb := func(k int) uint64 { return uint64(k) * 1024 }

	return map[string]Params{
		// PARSEC
		"blackscholes": mk(func(p *Params) {
			p.WorkingSet = kb(512)
			p.MemFraction = 0.25
			p.FPFraction = 0.6
			p.ILP = 4
			p.SharedFraction = 0.02
			p.SerialFraction = 0.02
			p.BranchRandomFrac = 0.01
		}),
		"swaptions": mk(func(p *Params) {
			p.WorkingSet = kb(256)
			p.MemFraction = 0.28
			p.FPFraction = 0.6
			p.ILP = 4
			p.SharedFraction = 0.01
			p.LockEvery = 400
			p.LockHoldBlocks = 2
			p.NumLocks = 1
			p.SerialFraction = 0.03
		}),
		"canneal": mk(func(p *Params) {
			p.WorkingSet = mb(96)
			p.SharedWorkingSet = mb(256)
			p.SharedFraction = 0.5
			p.MemFraction = 0.4
			p.StridedFraction = 0.1
			p.DependentLoads = true
			p.ILP = 2
			p.BranchRandomFrac = 0.08
			p.SerialFraction = 0.02
		}),
		"fluidanimate": mk(func(p *Params) {
			p.WorkingSet = mb(16)
			p.SharedWorkingSet = mb(32)
			p.SharedFraction = 0.15
			p.MemFraction = 0.35
			p.FPFraction = 0.5
			p.LockEvery = 60
			p.LockHoldBlocks = 2
			p.NumLocks = 64
			p.BarrierEvery = 2000
			p.SerialFraction = 0.03
		}),
		"streamcluster": mk(func(p *Params) {
			p.WorkingSet = mb(32)
			p.SharedWorkingSet = mb(64)
			p.SharedFraction = 0.3
			p.MemFraction = 0.42
			p.StridedFraction = 0.9
			p.FPFraction = 0.5
			p.BarrierEvery = 800
			p.SerialFraction = 0.05
		}),
		"freqmine": mk(func(p *Params) {
			p.WorkingSet = mb(64)
			p.SharedWorkingSet = mb(128)
			p.SharedFraction = 0.2
			p.MemFraction = 0.38
			p.StridedFraction = 0.3
			p.DependentLoads = true
			p.SerialFraction = 0.12
			p.BranchRandomFrac = 0.07
		}),
		// SPLASH-2
		"barnes": mk(func(p *Params) {
			p.WorkingSet = mb(8)
			p.SharedWorkingSet = mb(32)
			p.SharedFraction = 0.35
			p.MemFraction = 0.35
			p.FPFraction = 0.5
			p.DependentLoads = true
			p.StridedFraction = 0.3
			p.LockEvery = 120
			p.LockHoldBlocks = 2
			p.NumLocks = 128
			p.SerialFraction = 0.03
		}),
		"fft": mk(func(p *Params) {
			p.WorkingSet = mb(48)
			p.SharedWorkingSet = mb(64)
			p.SharedFraction = 0.25
			p.MemFraction = 0.4
			p.StridedFraction = 0.6
			p.FPFraction = 0.6
			p.BarrierEvery = 1500
			p.SerialFraction = 0.04
		}),
		"lu": mk(func(p *Params) {
			p.WorkingSet = mb(16)
			p.SharedWorkingSet = mb(32)
			p.SharedFraction = 0.2
			p.MemFraction = 0.38
			p.StridedFraction = 0.85
			p.FPFraction = 0.65
			p.BarrierEvery = 1000
			p.SerialFraction = 0.02
		}),
		"ocean": mk(func(p *Params) {
			p.WorkingSet = mb(220)
			p.SharedWorkingSet = mb(64)
			p.SharedFraction = 0.2
			p.MemFraction = 0.45
			p.StridedFraction = 0.92
			p.FPFraction = 0.6
			p.BarrierEvery = 700
			p.SerialFraction = 0.03
		}),
		"radix": mk(func(p *Params) {
			p.WorkingSet = mb(128)
			p.SharedWorkingSet = mb(128)
			p.SharedFraction = 0.3
			p.MemFraction = 0.45
			p.StridedFraction = 0.75
			p.BarrierEvery = 1200
			p.SerialFraction = 0.02
		}),
		"water": mk(func(p *Params) {
			p.WorkingSet = mb(2)
			p.SharedWorkingSet = mb(8)
			p.SharedFraction = 0.2
			p.MemFraction = 0.3
			p.FPFraction = 0.65
			p.ILP = 4
			p.LockEvery = 200
			p.LockHoldBlocks = 1
			p.NumLocks = 64
			p.BarrierEvery = 2500
			p.SerialFraction = 0.02
		}),
		"fmm": mk(func(p *Params) {
			p.WorkingSet = mb(12)
			p.SharedWorkingSet = mb(32)
			p.SharedFraction = 0.3
			p.MemFraction = 0.33
			p.FPFraction = 0.55
			p.DependentLoads = true
			p.LockEvery = 150
			p.LockHoldBlocks = 2
			p.NumLocks = 64
			p.SerialFraction = 0.04
		}),
		// SPEC OMP2001 (suffix _m as in the paper's figures)
		"wupwise_m": mk(func(p *Params) {
			p.WorkingSet = mb(180)
			p.MemFraction = 0.38
			p.StridedFraction = 0.9
			p.FPFraction = 0.65
			p.BarrierEvery = 1500
			p.SerialFraction = 0.02
		}),
		"swim_m": mk(func(p *Params) {
			p.WorkingSet = mb(480)
			p.MemFraction = 0.5
			p.StridedFraction = 0.97
			p.FPFraction = 0.6
			p.ILP = 4
			p.BarrierEvery = 900
			p.SerialFraction = 0.01
		}),
		"mgrid_m": mk(func(p *Params) {
			p.WorkingSet = mb(450)
			p.MemFraction = 0.46
			p.StridedFraction = 0.95
			p.FPFraction = 0.65
			p.BarrierEvery = 1000
			p.SerialFraction = 0.02
		}),
		"applu_m": mk(func(p *Params) {
			p.WorkingSet = mb(180)
			p.MemFraction = 0.42
			p.StridedFraction = 0.9
			p.FPFraction = 0.65
			p.BarrierEvery = 1200
			p.SerialFraction = 0.03
		}),
		"equake_m": mk(func(p *Params) {
			p.WorkingSet = mb(45)
			p.MemFraction = 0.42
			p.StridedFraction = 0.5
			p.DependentLoads = true
			p.FPFraction = 0.55
			p.BarrierEvery = 1000
			p.SerialFraction = 0.05
		}),
		"apsi_m": mk(func(p *Params) {
			p.WorkingSet = mb(110)
			p.MemFraction = 0.38
			p.StridedFraction = 0.85
			p.FPFraction = 0.6
			p.BarrierEvery = 1500
			p.SerialFraction = 0.06
		}),
		"fma3d_m": mk(func(p *Params) {
			p.WorkingSet = mb(100)
			p.MemFraction = 0.36
			p.StridedFraction = 0.7
			p.FPFraction = 0.6
			p.BarrierEvery = 1200
			p.SerialFraction = 0.05
		}),
		"art_m": mk(func(p *Params) {
			p.WorkingSet = mb(4)
			p.MemFraction = 0.42
			p.StridedFraction = 0.85
			p.FPFraction = 0.5
			p.BarrierEvery = 2000
			p.SerialFraction = 0.02
		}),
		"ammp_m": mk(func(p *Params) {
			p.WorkingSet = mb(26)
			p.MemFraction = 0.38
			p.StridedFraction = 0.3
			p.DependentLoads = true
			p.FPFraction = 0.55
			p.LockEvery = 80
			p.LockHoldBlocks = 3
			p.NumLocks = 16
			p.SerialFraction = 0.08
		}),
		// STREAM: pure bandwidth saturation.
		"stream": mk(func(p *Params) {
			p.WorkingSet = mb(700)
			p.MemFraction = 0.55
			p.StoreFraction = 0.4
			p.StridedFraction = 1.0
			p.FPFraction = 0.5
			p.ILP = 4
			p.SharedFraction = 0
			p.BranchRandomFrac = 0.0
			p.BarrierEvery = 2500
			p.SerialFraction = 0.0
		}),
	}
}

// SPECCPU2006 returns the 29 single-threaded workload names used for the
// Figure 5 validation and Figure 7 performance distribution, in a stable
// order.
func SPECCPU2006() []string {
	names := make([]string, 0, 29)
	for n := range specCPUParams() {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Multithreaded returns the 23 multithreaded workload names used in Figure 6
// (PARSEC + SPLASH-2 + SPEC OMP + STREAM), in a stable order.
func Multithreaded() []string {
	names := make([]string, 0, 23)
	for n := range multiThreadedParams() {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// PARSECNames returns the PARSEC workloads used in the Figure 6 speedup plot.
func PARSECNames() []string {
	return []string{"blackscholes", "canneal", "fluidanimate", "freqmine", "streamcluster", "swaptions"}
}

// Figure2Names returns the ten PARSEC/SPLASH-2 workloads profiled for
// path-altering interference in Figure 2.
func Figure2Names() []string {
	return []string{"barnes", "blackscholes", "canneal", "fft", "fluidanimate", "lu", "ocean", "radix", "swaptions", "water"}
}

// Table4Names returns the thirteen parallel workloads reported in Table 4 and
// reused for Figures 8 and 9.
func Table4Names() []string {
	return []string{"blackscholes", "water", "fluidanimate", "canneal", "wupwise_m", "swim_m", "stream",
		"applu_m", "barnes", "ocean", "fft", "radix", "mgrid_m"}
}

// registry maps every workload name to its parameter set. It is built once:
// Params is a value type, so a caller that changes the copy Lookup returns
// cannot change the registry.
var registry = sync.OnceValue(func() map[string]Params {
	spec, mt := specCPUParams(), multiThreadedParams()
	m := make(map[string]Params, len(spec)+len(mt))
	maps.Copy(m, spec)
	maps.Copy(m, mt)
	return m
})

// Lookup returns the parameter set registered under name. The second return
// value reports whether the name is known.
func Lookup(name string) (Params, bool) {
	p, ok := registry()[name]
	return p, ok
}

// MustLookup returns the parameter set registered under name and panics with
// a descriptive error for unknown names. It is used by the experiment harness
// where an unknown workload name is a programming error.
func MustLookup(name string) Params {
	p, ok := Lookup(name)
	if !ok {
		panic(fmt.Sprintf("trace: unknown workload %q", name))
	}
	return p
}

// AllNames returns every registered workload name, sorted.
func AllNames() []string { return slices.Sorted(maps.Keys(registry())) }
