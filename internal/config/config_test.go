package config

import (
	"bytes"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"zsim/internal/core"
)

var osWriteFile = os.WriteFile

func TestWestmerePreset(t *testing.T) {
	s := WestmereValidation()
	if s.NumCores != 6 || s.CoreModel != CoreOOO {
		t.Fatalf("Westmere preset should be a 6-core OOO system: %+v", s)
	}
	if s.L3.Banks != 6 || s.L3.SizeKB != 12*1024 || s.L3.Ways != 16 {
		t.Fatalf("Westmere L3 should be a 12MB 16-way 6-bank cache")
	}
	if s.L1D.Latency != 4 || s.L1I.Latency != 3 || s.L2.Latency != 7 {
		t.Fatalf("Westmere cache latencies wrong")
	}
	if s.IntervalCycles != 1000 {
		t.Fatalf("Westmere bound-weave settings wrong")
	}
	if s.Network != NetRing {
		t.Fatalf("Westmere uncore uses a ring")
	}
	if s.NumTiles() != 6 {
		t.Fatalf("one core per tile expected")
	}
}

func TestTiledChipPresets(t *testing.T) {
	for _, tc := range []struct {
		tiles, cores int
	}{{4, 64}, {16, 256}, {64, 1024}} {
		s := TiledChip(tc.tiles, CoreIPC1)
		if s.NumCores != tc.cores {
			t.Fatalf("%d tiles should give %d cores, got %d", tc.tiles, tc.cores, s.NumCores)
		}
		if s.CoresPerTile != 16 || s.NumTiles() != tc.tiles {
			t.Fatalf("tiling wrong for %d tiles", tc.tiles)
		}
		if s.L3.Banks != tc.tiles {
			t.Fatalf("one L3 bank per tile expected")
		}
		if s.L3.SizeKB != 8*1024*tc.tiles {
			t.Fatalf("8MB of L3 per tile expected")
		}
		if s.Network != NetMesh {
			t.Fatalf("tiled chip uses a mesh")
		}
	}
	// Degenerate tile count clamps.
	if TiledChip(0, CoreOOO).NumCores != 16 {
		t.Fatalf("zero tiles should clamp to one")
	}
}

func TestSmallTestPreset(t *testing.T) {
	s := SmallTest()
	if s.NumCores != 4 || s.CoreModel != CoreIPC1 {
		t.Fatalf("small preset wrong")
	}
}

func TestValidateErrors(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*System)
	}{
		{"no cores", func(s *System) { s.NumCores = 0 }},
		{"bad core model", func(s *System) { s.CoreModel = "vliw" }},
		{"tile mismatch", func(s *System) { s.CoresPerTile = 5 }},
		{"zero l1d", func(s *System) { s.L1D.SizeKB = 0 }},
		{"zero l3", func(s *System) { s.L3.SizeKB = 0 }},
		{"bad mem model", func(s *System) { s.MemModel = "md-1" }},
		{"bad weave mem", func(s *System) { s.WeaveMem = "dram" }},
		{"bad network", func(s *System) { s.Network = "torus" }},
		{"bad network with noc", func(s *System) { s.Network = "torus"; s.NOCContention = true }},
		{"retired weave mem", func(s *System) { s.WeaveMem = "none" }},
		{"65 tiles under the L3", func(s *System) { s.NumCores = 65 }},
		{"33 cores per tile", func(s *System) { s.NumCores, s.CoresPerTile = 66, 33 }},
	}
	for _, c := range cases {
		s := WestmereValidation()
		c.mut(s)
		if err := s.Validate(); err == nil {
			t.Fatalf("%s: expected a validation error", c.name)
		}
	}
	// BuildSystem cannot wire more than 64 sharers into one directory, so
	// Validate refuses such chips instead of letting construction panic.
	s := SmallTest()
	s.NumCores = 72
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "64-sharer limit") {
		t.Fatalf("72 private-L2 cores: got %v, want the 64-sharer limit", err)
	}
	if err := TiledChip(64, CoreOOO).Validate(); err != nil {
		t.Fatalf("the 1,024-core tiled chip must validate: %v", err)
	}
}

func TestValidateDefaults(t *testing.T) {
	s := &System{
		NumCores: 2,
		L1I:      CacheConfig{SizeKB: 32},
		L1D:      CacheConfig{SizeKB: 32},
		L2:       CacheConfig{SizeKB: 256},
		L3:       CacheConfig{SizeKB: 1024},
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("minimal config should validate: %v", err)
	}
	if s.CoreModel != CoreOOO || s.MemModel != MemSimple || s.Network != NetFlat || s.WeaveMem != WeaveMemDDR3 {
		t.Fatalf("defaults not applied: %+v", s)
	}
	if s.IntervalCycles != 1000 || s.MemControllers != 1 {
		t.Fatalf("bound-weave defaults wrong: %+v", s)
	}
	if s.L1I.Ways != 1 || s.L3.Banks != 1 {
		t.Fatalf("cache defaults wrong")
	}
	if s.OOO.IssueWidth != 4 {
		t.Fatalf("OOO defaults not applied")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	s := TiledChip(4, CoreOOO)
	var buf bytes.Buffer
	if err := s.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if loaded.NumCores != s.NumCores || loaded.L3.Banks != s.L3.Banks ||
		loaded.CoreModel != s.CoreModel || loaded.IntervalCycles != s.IntervalCycles {
		t.Fatalf("round trip mismatch: %+v vs %+v", loaded, s)
	}
}

func TestLoadRejectsUnknownFields(t *testing.T) {
	_, err := Load(strings.NewReader(`{"numCores": 4, "bogusField": 1}`))
	if err == nil {
		t.Fatalf("unknown fields should be rejected")
	}
}

// An ooo block that sets some fields keeps them; only the unset ones take
// the Westmere defaults.
func TestLoadFillsPartialOOOBlock(t *testing.T) {
	s := WestmereValidation()
	s.OOO = OOOParams{ROBSize: 64}
	var buf bytes.Buffer
	if err := s.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	want := core.OOOWestmere()
	want.ROBSize = 64
	if loaded.OOO != want {
		t.Fatalf("ooo = %+v, want %+v", loaded.OOO, want)
	}
}

// An ooo value is either simulated as given or rejected: a 4-entry ROB
// stays 4 entries, and a negative size fails to load.
func TestLoadHonoursOrRejectsOOOValues(t *testing.T) {
	load := func(ooo string) (*System, error) {
		return Load(strings.NewReader(`{"numCores": 1, "l1i": {"sizeKB": 32}, "l1d": {"sizeKB": 32},
			"l2": {"sizeKB": 256}, "l3": {"sizeKB": 1024}, "ooo": ` + ooo + `}`))
	}
	cfg, err := load(`{"robSize": 4, "issueWidth": 1}`)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.OOO.ROBSize != 4 || cfg.OOO.IssueWidth != 1 || cfg.OOO.LoadQueueSize != core.OOOWestmere().LoadQueueSize {
		t.Fatalf("ooo = %+v, want robSize 4, issueWidth 1 and the other defaults", cfg.OOO)
	}
	if _, err := load(`{"robSize": -4}`); err == nil || !strings.Contains(err.Error(), "negative") {
		t.Fatalf("a negative robSize loaded: %v", err)
	}
}

// randomRepl and weaveMem "none" were removed; configs naming them fail to
// load instead of silently running something else.
func TestLoadRejectsRemovedValues(t *testing.T) {
	var buf bytes.Buffer
	if err := WestmereValidation().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	js := buf.String()
	for _, c := range []struct{ old, new, want string }{
		{`"l3": {`, `"l3": {"randomRepl": true,`, `unknown field "randomRepl"`},
		{`"weaveMem": "ddr3"`, `"weaveMem": "none"`, `unknown weave memory model "none"`},
	} {
		mod := strings.Replace(js, c.old, c.new, 1)
		if mod == js {
			t.Fatalf("preset JSON has no %s", c.old)
		}
		if _, err := Load(strings.NewReader(mod)); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("%s: got %v, want an error containing %q", c.new, err, c.want)
		}
	}
}

func TestLoadRejectsInvalid(t *testing.T) {
	_, err := Load(strings.NewReader(`{"numCores": 0}`))
	if err == nil {
		t.Fatalf("invalid config should be rejected")
	}
	_, err = Load(strings.NewReader(`not json`))
	if err == nil {
		t.Fatalf("malformed JSON should be rejected")
	}
}

func TestLoadFileMissing(t *testing.T) {
	if _, err := LoadFile("/nonexistent/zsim.json"); err == nil {
		t.Fatalf("missing file should error")
	}
}

func TestLoadFile(t *testing.T) {
	path := t.TempDir() + "/cfg.json"
	s := SmallTest()
	var buf bytes.Buffer
	if err := s.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if err := writeFile(path, buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadFile(path)
	if err != nil {
		t.Fatalf("LoadFile: %v", err)
	}
	if loaded.Name != s.Name {
		t.Fatalf("loaded config mismatch")
	}
}

// writeFile is a tiny helper to avoid importing os in most tests.
func writeFile(path string, data []byte) error {
	return osWriteFile(path, data, 0o644)
}

func TestRunLimitsRoundTripAndDefaults(t *testing.T) {
	s := SmallTest()
	s.MaxWallTime = 1500 * time.Millisecond
	s.MaxCycles = 123456
	var buf bytes.Buffer
	if err := s.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if got.MaxWallTime != 1500*time.Millisecond || got.MaxCycles != 123456 {
		t.Fatalf("run limits lost in round trip: %v / %d", got.MaxWallTime, got.MaxCycles)
	}
	// Unset limits stay zero (= unlimited) and negative wall time is
	// normalized to unlimited.
	d := SmallTest()
	if d.MaxWallTime != 0 || d.MaxCycles != 0 {
		t.Fatalf("presets must not impose run limits")
	}
	d.MaxWallTime = -time.Second
	if err := d.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if d.MaxWallTime != 0 {
		t.Fatalf("negative MaxWallTime should normalize to unlimited")
	}
}

func TestWeaveModeRoundTripAndDefaults(t *testing.T) {
	// The retired weave knobs have no default: unset stays unset.
	s := SmallTest()
	if s.WeaveModeKind != "" || s.WeaveDomains != 0 {
		t.Fatalf("weave knobs should stay unset, got mode %q domains %d", s.WeaveModeKind, s.WeaveDomains)
	}
	// Old configs still load with either value, and it survives a round trip.
	s.WeaveModeKind = WeaveSerial
	s.WeaveDomains = 4
	var buf bytes.Buffer
	if err := s.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if got.WeaveModeKind != WeaveSerial || got.WeaveDomains != 4 {
		t.Fatalf("weave knobs lost in round trip: %q %d", got.WeaveModeKind, got.WeaveDomains)
	}
	// They do nothing, so they are not construction shape.
	if got.ShapeKey() != SmallTest().ShapeKey() {
		t.Fatalf("weave knobs must not move the shape key")
	}
	// Unknown modes are still rejected.
	bad := SmallTest()
	bad.WeaveModeKind = "fast-and-loose"
	if err := bad.Validate(); err == nil {
		t.Fatalf("unknown weave mode should be rejected")
	}
	// The weaveParallel flag retired before them is an unknown field now.
	if _, err := Load(strings.NewReader(`{"numCores":2,"weaveParallel":true,
		"l1i":{"sizeKB":16},"l1d":{"sizeKB":16},"l2":{"sizeKB":64},"l3":{"sizeKB":256}}`)); err == nil {
		t.Fatalf("legacy weaveParallel config should be rejected")
	}
}

// TestShapeKeyCoversEveryField changes each leaf field of System, nested
// structs included, to a different non-zero value: the shape key must move
// for every field except the five run-variable and inert ones, and must not
// move for those. A field added to System is covered without being listed.
func TestShapeKeyCoversEveryField(t *testing.T) {
	outside := map[string]bool{"Name": true, "MaxWallTime": true, "MaxCycles": true,
		"WeaveDomains": true, "WeaveModeKind": true}
	base := SmallTest()
	key := base.ShapeKey()
	var visit func(path string, idx []int, typ reflect.Type)
	visit = func(path string, idx []int, typ reflect.Type) {
		if typ.Kind() == reflect.Struct {
			for i := range typ.NumField() {
				f := typ.Field(i)
				visit(strings.TrimPrefix(path+"."+f.Name, "."), append(slices.Clone(idx), i), f.Type)
			}
			return
		}
		s := *base
		v := reflect.ValueOf(&s).Elem().FieldByIndex(idx)
		switch v.Kind() {
		case reflect.Bool:
			v.SetBool(!v.Bool())
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			v.SetInt(v.Int()%1000 + 1001)
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			v.SetUint(v.Uint()%100 + 101)
		case reflect.Float32, reflect.Float64:
			v.SetFloat(v.Float() + 0.5)
		case reflect.String:
			v.SetString(v.String() + "x")
		default:
			t.Fatalf("%s: unhandled kind %s", path, v.Kind())
		}
		if v.IsZero() {
			t.Fatalf("%s: test value is zero", path)
		}
		moved := s.ShapeKey() != key
		if outside[path] && moved {
			t.Errorf("%s is outside the shape but moved the key", path)
		}
		if !outside[path] && !moved {
			t.Errorf("%s is construction shape but left the key unchanged", path)
		}
	}
	visit("", nil, reflect.TypeFor[System]())
}

// BenchmarkShapeKey measures one shape-key hash of the Westmere preset.
func BenchmarkShapeKey(b *testing.B) {
	s := WestmereValidation()
	for b.Loop() {
		s.ShapeKey()
	}
}
