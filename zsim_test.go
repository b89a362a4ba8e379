package zsim

import (
	"bytes"
	"strings"
	"testing"
)

func TestPublicAPIQuickRun(t *testing.T) {
	cfg := SmallConfig()
	sim, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	params := DefaultWorkloadParams()
	params.BlocksPerThread = 300
	sim.AddWorkload("unit", params, 4)
	sim.SetHostThreads(2)
	sim.SetSeed(7)
	res, err := sim.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Metrics.Instrs == 0 || res.Metrics.IPC <= 0 {
		t.Fatalf("run produced no work: %+v", res.Metrics)
	}
	if !strings.Contains(res.Summary(), "simulated") {
		t.Fatalf("summary malformed: %s", res.Summary())
	}
	// Running twice is an error.
	if _, err := sim.Run(); err == nil {
		t.Fatalf("second Run should fail")
	}
}

func TestPublicAPINamedWorkloads(t *testing.T) {
	names := NamedWorkloads()
	if len(names) < 50 {
		t.Fatalf("expected the full workload registry, got %d names", len(names))
	}
	if _, ok := LookupWorkload("mcf"); !ok {
		t.Fatalf("mcf should be registered")
	}
	sim, err := New(SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.AddNamedWorkload("not-a-workload", 1); err == nil {
		t.Fatalf("unknown workload should be rejected")
	}
	if _, err := sim.AddNamedWorkload("blackscholes", 2); err != nil {
		t.Fatalf("AddNamedWorkload: %v", err)
	}
	sim.SetMaxInstructions(50000)
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.Instrs < 50000 {
		t.Fatalf("bounded run should reach its budget, got %d", res.Metrics.Instrs)
	}
}

func TestPublicAPIErrors(t *testing.T) {
	if _, err := New(&Config{}); err == nil {
		t.Fatalf("invalid config should be rejected")
	}
	sim, err := New(SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(); err == nil {
		t.Fatalf("running with no workloads should fail")
	}
}

func TestPublicAPIConfigs(t *testing.T) {
	if WestmereConfig().NumCores != 6 {
		t.Fatalf("Westmere config wrong")
	}
	if TiledConfig(4, "ipc1").NumCores != 64 {
		t.Fatalf("tiled config wrong")
	}
	var buf bytes.Buffer
	if err := SmallConfig().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadConfig(&buf)
	if err != nil || loaded.NumCores != 4 {
		t.Fatalf("config round trip failed: %v", err)
	}
	if _, err := LoadConfigFile("/does/not/exist.json"); err == nil {
		t.Fatalf("missing file should error")
	}
}

func TestPublicAPIPinnedMultiprocess(t *testing.T) {
	cfg := SmallConfig()
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	params := DefaultWorkloadParams()
	params.BlocksPerThread = 150
	// Two processes pinned to disjoint core groups, like the multiprogrammed
	// usage model the paper describes.
	p0 := sim.AddPinnedWorkload("front", params, 2, []int{0, 1})
	p1 := sim.AddPinnedWorkload("back", params, 2, []int{2, 3})
	if p0 == p1 {
		t.Fatalf("distinct processes expected")
	}
	sim.SetHostThreads(2)
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.Instrs == 0 {
		t.Fatalf("pinned multiprocess run should execute work")
	}
}
