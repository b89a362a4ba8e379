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
// The -traced rows run the same sweeps with hop recording on, handing each
// non-empty trace to a Recorder as a core does and resetting the recorder
// every 1,024 records as the weave phase would: their excess over the
// plain rows is the bound phase's recording cost.
func BenchmarkAccessPath(b *testing.B) {
	for _, traced := range []bool{false, true} {
		for _, tc := range []struct {
			name  string
			lines uint64
		}{{"l1", 256}, {"l2", 2048}, {"l3", 32768}, {"mem", 393216}} {
			name := tc.name
			if traced {
				name += "-traced"
			}
			b.Run(name, func(b *testing.B) {
				cfg := config.WestmereValidation()
				cfg.Contention = false
				sys, err := BuildSystem(cfg)
				if err != nil {
					b.Fatal(err)
				}
				l1 := sys.L1D[0]
				rec := NewRecorder(0, nil)
				var req cache.Request
				var hops []cache.Hop
				var next, cycle uint64
				access := func() {
					req = cache.Request{LineAddr: 1<<30 + next, Cycle: cycle, Hops: hops, RecordHops: traced}
					l1.Access(&req)
					if hops = req.Hops[:0]; len(req.Hops) > 0 {
						hops = rec.RecordAccess(0, cycle, false, req.Hops)
						if len(rec.recs) == 1024 {
							rec.Reset()
						}
					}
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
}
