package zsim

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"zsim/internal/config"
)

// TestStatsOutputGolden checks WriteStats and WriteStatsCSV byte for byte
// against the files in testdata/stats, on three chips that between them
// export every component's statistics: IPC1 and OOO cores, private and
// shared caches, simple and M/D/1 memory, NoC routers. Each chip runs fresh
// and again after Reset, with one host thread and a fixed seed, so the
// second pass also checks that every component zeroes its own statistics.
func TestStatsOutputGolden(t *testing.T) {
	mesh := SmallConfig() // 4 single-core tiles -> a 2x2 mesh
	mesh.Contention, mesh.NOCContention = true, true
	mesh.Network, mesh.NetRouterStage = config.NetMesh, 1
	mesh.NOCLinkBytes, mesh.NOCQueueDepth = 4, 1             // 18-flit packets stall in 1-deep queues
	mesh.MemModel, mesh.MemServiceCycles = config.MemMD1, 40 // saturates
	chips := map[string]*Config{"small-ipc1-simple": SmallConfig(), "westmere-ooo": WestmereConfig(), "mesh-noc-md1": mesh}
	for name, cfg := range chips {
		sim, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sim.SetReusable(true)
		defer sim.Close()
		for _, run := range []string{"fresh", "reset"} {
			if run == "reset" {
				if err := sim.Reset(nil); err != nil {
					t.Fatal(err)
				}
			}
			p := DefaultWorkloadParams()
			p.BlocksPerThread, p.WorkingSet = 4000, 8<<20
			sim.AddWorkload("golden", p, 4)
			sim.SetHostThreads(1)
			sim.SetSeed(11)
			if _, err := sim.Run(); err != nil {
				t.Fatal(err)
			}
			var text, csv bytes.Buffer
			if err := errors.Join(sim.WriteStats(&text), sim.WriteStatsCSV(&csv)); err != nil {
				t.Fatal(err)
			}
			for ext, got := range map[string]string{"txt": text.String(), "csv": csv.String()} {
				path := filepath.Join("testdata", "stats", name+"."+ext)
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				g, w := strings.SplitAfter(got, "\n"), strings.SplitAfter(string(want), "\n")
				i := 0
				for i < len(g) && i < len(w) && g[i] == w[i] {
					i++
				}
				if got != string(want) {
					t.Errorf("%s run: %s differs from line %d", run, path, i+1)
				}
			}
		}
	}
}
