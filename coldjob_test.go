package zsim

import (
	"runtime"
	"runtime/metrics"
	"testing"
)

// coldJobShape is the k-th of zsimd-mix's eight cold job shapes (k mod 8):
// tiled chips of 2 to 5 tiles, each with IPC1 and with OOO cores.
func coldJobShape(k int) *Config {
	return TiledConfig(2+k%8/2, []string{"ipc1", "ooo"}[k%2])
}

// TestConstructionBytesBounded bounds the heap bytes New takes for the
// 64-core OOO tiled chip. New allocated 1,710,112 B (go1.24, linux/amd64)
// when it built every core's predictor table and OOO window, and 1,005,912 B
// once those were built on a core's first block. With a 4-byte slot per
// cache set in place of an 8-byte pointer, New allocated 783,784 B, and
// 581,080 B by the time the chip's slot tables, which had come from doubling
// arena chunks with their tails abandoned, were taken from one chunk sized
// to the chip's total set count. Now New allocates 531,928 B. The budget is
// that figure plus 10%.
func TestConstructionBytesBounded(t *testing.T) {
	const budget = 531_928 * 11 / 10
	least := ^uint64(0)
	for i := 0; i < 3; i++ {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		sim, err := New(TiledConfig(4, "ooo"))
		runtime.ReadMemStats(&ms)
		if err != nil {
			t.Fatal(err)
		}
		runtime.KeepAlive(sim)
		least = min(least, ms.TotalAlloc-before)
	}
	if least > budget {
		t.Fatalf("New(TiledConfig(4, \"ooo\")) allocates %d B; budget is %d B", least, budget)
	}
}

// TestChipScanBytesBounded bounds what the GC must scan of a built
// 1,024-core chip: the growth of /gc/scan/heap:bytes across New. With one
// 8-byte pointer per cache set it was 11,925,216 B (go1.24, linux/amd64);
// with pointer-free slot tables and line chunks it is 1,702,552 B. The
// budget is that figure plus 10%.
func TestChipScanBytesBounded(t *testing.T) {
	const budget = 1_702_552 * 11 / 10
	scan := []metrics.Sample{{Name: "/gc/scan/heap:bytes"}}
	least := ^uint64(0)
	for i := 0; i < 3; i++ {
		runtime.GC()
		metrics.Read(scan)
		before := scan[0].Value.Uint64()
		sim, err := New(TiledConfig(64, "ipc1"))
		if err != nil {
			t.Fatal(err)
		}
		runtime.GC()
		metrics.Read(scan)
		runtime.KeepAlive(sim)
		if after := scan[0].Value.Uint64(); after > before {
			least = min(least, after-before)
		} else {
			least = 0
		}
	}
	if least > budget {
		t.Fatalf("New(TiledConfig(64, \"ipc1\")) adds %d B of GC-scanned heap; budget is %d B", least, budget)
	}
}

// BenchmarkColdJob runs zsimd-mix's cold jobs through the facade: each op
// builds a simulator for the next cold shape and runs fluidanimate, 2
// threads x 25 blocks, on one host thread. It measures what a job that
// misses the warm pool costs: construction, translation (once per process)
// and a short run.
func BenchmarkColdJob(b *testing.B) {
	params, _ := LookupWorkload("fluidanimate")
	params.BlocksPerThread = 25
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sim, err := New(coldJobShape(i))
		if err != nil {
			b.Fatal(err)
		}
		sim.AddWorkload("fluidanimate", params, 2)
		sim.SetHostThreads(1)
		sim.SetSeed(uint64(i) + 1)
		if _, err := sim.Run(); err != nil {
			b.Fatal(err)
		}
	}
}
