package boundweave

import (
	"testing"

	"zsim/internal/cache"
	"zsim/internal/config"
)

// BenchmarkAccessPath times one access through core 0's L1D of the Westmere
// hierarchy, contention off, in sweeps sized to be served by one level: 256
// lines hit the 32 KB L1D, 2,048 the 256 KB L2, 32,768 the 12 MB L3, and
// 393,216 (24 MB) go to memory. A first sweep, off the clock, fills the
// level. These are the benchmark's cache.*_ns kernels as package
// benchmarks, so the cache layout's ns/access can be measured on its own.
func BenchmarkAccessPath(b *testing.B) {
	for _, tc := range []struct {
		name  string
		lines uint64
	}{{"l1", 256}, {"l2", 2048}, {"l3", 32768}, {"mem", 393216}} {
		b.Run(tc.name, func(b *testing.B) {
			cfg := config.WestmereValidation()
			cfg.Contention = false
			sys, err := BuildSystem(cfg)
			if err != nil {
				b.Fatal(err)
			}
			l1 := sys.L1D[0]
			var req cache.Request
			var next, cycle uint64
			access := func() {
				req = cache.Request{LineAddr: 1<<30 + next, Cycle: cycle}
				l1.Access(&req)
				cycle += 4
				if next++; next == tc.lines {
					next = 0
				}
			}
			for range tc.lines {
				access()
			}
			for b.Loop() {
				access()
			}
		})
	}
}
