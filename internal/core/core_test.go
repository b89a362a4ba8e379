package core

import (
	"math/rand"
	"reflect"
	"testing"

	"zsim/internal/arena"
	"zsim/internal/bpred"
	"zsim/internal/cache"
	"zsim/internal/isa"
	"zsim/internal/memctrl"
	"zsim/internal/stats"
	"zsim/internal/trace"
)

// buildHierarchy creates a small private L1I/L1D + L2 -> memory hierarchy for
// one core and returns the ports.
func buildHierarchy() MemPorts {
	mem := memctrl.NewSimple(99, 120, nil)
	l2 := cache.New(cache.Config{SizeKB: 256, Ways: 8, Latency: 7}, 3, nil)
	l2.SetParent(mem)
	l1i := cache.New(cache.Config{SizeKB: 32, Ways: 4, Latency: 3}, 1, nil)
	l1d := cache.New(cache.Config{SizeKB: 32, Ways: 8, Latency: 4}, 2, nil)
	l1i.SetParent(l2)
	l1d.SetParent(l2)
	l2.AddChild(l1i)
	l2.AddChild(l1d)
	return MemPorts{L1I: l1i, L1D: l1d}
}

// mkBlock builds a dynamic block from instructions and addresses.
func mkBlock(id uint64, addr uint64, instrs []isa.Instruction, addrs []uint64, taken bool) *trace.DynBlock {
	bb := &isa.BasicBlock{ID: id, Addr: addr, Instrs: instrs}
	p := isa.Decode(bb)
	d := &p.Blocks[0]
	return &trace.DynBlock{Decoded: d, Program: p, Addrs: addrs, Taken: taken, BranchPC: addr + d.Bytes}
}

// aluBlock builds a block of n ALU instructions terminated by a conditional
// branch (cmp+jcc), like the blocks the workload generator emits.
func aluBlock(id uint64, n int) *trace.DynBlock {
	var instrs []isa.Instruction
	for i := 0; i < n; i++ {
		instrs = append(instrs, isa.Instruction{Op: isa.OpAdd, Dst: isa.GPR(i % 4), Src1: isa.GPR(i % 4), Src2: isa.GPR((i + 1) % 4), Bytes: 3})
	}
	instrs = append(instrs,
		isa.Instruction{Op: isa.OpCmp, Src1: isa.RAX, Src2: isa.RBX, Bytes: 3},
		isa.Instruction{Op: isa.OpJcc, Bytes: 2})
	return mkBlock(id, 0x400000+id*64, instrs, nil, true)
}

func loadBlock(id uint64, addrs []uint64) *trace.DynBlock {
	var instrs []isa.Instruction
	for range addrs {
		instrs = append(instrs, isa.Instruction{Op: isa.OpLoad, Dst: isa.RAX, Src1: isa.RBP, Bytes: 4})
	}
	return mkBlock(id, 0x400000+id*64, instrs, addrs, true)
}

func TestIPC1Basics(t *testing.T) {
	c := NewIPC1(3, buildHierarchy(), nil)
	if c.id != 3 {
		t.Fatalf("metadata wrong")
	}
	b := aluBlock(1, 10)
	c.SimulateBlock(b)
	if c.Instrs() != 12 { // 10 ALU + cmp + jcc
		t.Fatalf("instrs: %d", c.Instrs())
	}
	if c.Uops() == 0 {
		t.Fatalf("uops should be counted")
	}
	// IPC1: pure ALU block costs ~1 cycle/instr plus the initial I-fetch.
	if c.Cycle() < 10 || c.Cycle() > 200 {
		t.Fatalf("cycle count out of range: %d", c.Cycle())
	}
	// Simulating the same block again is cheaper (warm I-cache) and still 1
	// cycle per instruction (12 instructions, correctly-predicted branch).
	c.SimulateBlock(b) // train the branch predictor
	before := c.Cycle()
	c.SimulateBlock(b)
	delta := c.Cycle() - before
	if delta != 12 {
		t.Fatalf("warm ALU block should cost exactly 12 cycles on IPC1, got %d", delta)
	}
}

func TestIPC1LoadLatencyStalls(t *testing.T) {
	ports := buildHierarchy()
	c := NewIPC1(0, ports, nil)
	// Warm up the I-cache with an ALU block at the same address.
	addrs := []uint64{1 << 30}
	b := loadBlock(1, addrs)
	c.SimulateBlock(b) // cold: misses all the way to memory
	coldCycles := c.Cycle()
	if coldCycles < 120 {
		t.Fatalf("cold load should pay memory latency, cycle=%d", coldCycles)
	}
	// Re-run with the same address: now a cache hit, much cheaper.
	before := c.Cycle()
	c.SimulateBlock(loadBlock(1, addrs))
	warmDelta := c.Cycle() - before
	if warmDelta > 20 {
		t.Fatalf("warm load block should be cheap, got %d cycles", warmDelta)
	}
}

func TestIPC1DelayAndSetCycle(t *testing.T) {
	c := NewIPC1(0, buildHierarchy(), nil)
	c.SimulateBlock(aluBlock(1, 4))
	base := c.Cycle()
	c.AddDelay(100)
	if c.Cycle() != base+100 {
		t.Fatalf("AddDelay should advance the clock")
	}
	c.SetCycle(base + 50) // behind: no effect
	if c.Cycle() != base+100 {
		t.Fatalf("SetCycle must never rewind")
	}
	c.SetCycle(base + 500)
	if c.Cycle() != base+500 {
		t.Fatalf("SetCycle should fast-forward")
	}
}

func TestIPC1BranchMispredictPenalty(t *testing.T) {
	c := NewIPC1(0, buildHierarchy(), nil)
	// Alternate outcomes on the same branch address at first confuse the
	// predictor; total mispredicts must be > 0 and each costs 17 cycles.
	b := aluBlock(1, 2)
	for i := 0; i < 50; i++ {
		b.Taken = i%3 == 0 // irregular pattern
		c.SimulateBlock(b)
	}
	pred, miss := c.BranchStats()
	if pred != 50 {
		t.Fatalf("should have predicted 50 branches, got %d", pred)
	}
	if miss == 0 {
		t.Fatalf("irregular branch should cause mispredictions")
	}
}

func TestOOOBasicThroughput(t *testing.T) {
	c := NewOOO(1, OOOWestmere(), buildHierarchy(), nil)
	if c.id != 1 {
		t.Fatalf("metadata wrong")
	}
	// High-ILP ALU blocks: the OOO core should sustain well above 1 IPC once
	// warm (4-wide issue, independent chains).
	var instrs []isa.Instruction
	for i := 0; i < 16; i++ {
		instrs = append(instrs, isa.Instruction{Op: isa.OpAdd, Dst: isa.GPR(i % 8), Src1: isa.GPR(i % 8), Src2: isa.GPR(i % 8), Bytes: 3})
	}
	b := mkBlock(1, 0x400000, instrs, nil, true)
	for i := 0; i < 200; i++ {
		c.SimulateBlock(b)
	}
	ipc := float64(c.Instrs()) / float64(c.Cycle())
	if ipc < 1.2 {
		t.Fatalf("OOO core should exceed IPC 1.2 on independent ALU work, got %.2f", ipc)
	}
	if ipc > 4.01 {
		t.Fatalf("OOO core cannot exceed its issue width, got %.2f", ipc)
	}
}

func TestOOOFasterThanIPC1OnILP(t *testing.T) {
	// The same high-ILP instruction stream should take fewer cycles on the
	// OOO core than on the IPC1 core.
	mkCores := func() (Core, Core) {
		return NewIPC1(0, buildHierarchy(), nil),
			NewOOO(0, OOOWestmere(), buildHierarchy(), nil)
	}
	simple, ooo := mkCores()
	// Independent integer ALU work spread over many registers: three ALU
	// ports let the OOO core sustain ~3 per cycle, while IPC1 does 1.
	var instrs []isa.Instruction
	for i := 0; i < 12; i++ {
		instrs = append(instrs, isa.Instruction{Op: isa.OpAdd, Dst: isa.GPR(i % 12), Src1: isa.GPR(i % 12), Src2: isa.GPR(i % 12), Bytes: 3})
	}
	b := mkBlock(1, 0x400000, instrs, nil, true)
	for i := 0; i < 100; i++ {
		simple.SimulateBlock(b)
		ooo.SimulateBlock(b)
	}
	if ooo.Cycle() >= simple.Cycle() {
		t.Fatalf("OOO (%d cycles) should beat IPC1 (%d cycles) on ILP-rich code", ooo.Cycle(), simple.Cycle())
	}
}

func TestOOODependencyChainSerializes(t *testing.T) {
	// A long dependent chain of multiplies (latency 3) cannot run faster than
	// latency * count, regardless of width.
	c := NewOOO(0, OOOWestmere(), buildHierarchy(), nil)
	var instrs []isa.Instruction
	for i := 0; i < 10; i++ {
		instrs = append(instrs, isa.Instruction{Op: isa.OpMul, Dst: isa.RAX, Src1: isa.RAX, Src2: isa.RBX, Bytes: 3})
	}
	b := mkBlock(1, 0x400000, instrs, nil, true)
	for i := 0; i < 50; i++ {
		c.SimulateBlock(b)
	}
	cpi := float64(c.Cycle()) / float64(c.Instrs())
	if cpi < 2.5 {
		t.Fatalf("dependent multiply chain should be bound by its 3-cycle latency, got CPI %.2f", cpi)
	}
}

func TestOOOLoadMissStalls(t *testing.T) {
	ports := buildHierarchy()
	c := NewOOO(0, OOOWestmere(), ports, nil)
	// Dependent loads to distinct cold lines: every one misses to memory and
	// the dependent chain exposes the full latency.
	var lat []uint64
	for i := 0; i < 20; i++ {
		addrs := []uint64{uint64(1<<32) + uint64(i)*4096}
		instrs := []isa.Instruction{
			{Op: isa.OpLoad, Dst: isa.RAX, Src1: isa.RAX, Bytes: 4},
			{Op: isa.OpAdd, Dst: isa.RAX, Src1: isa.RAX, Src2: isa.RAX, Bytes: 3},
		}
		before := c.Cycle()
		c.SimulateBlock(mkBlock(uint64(i+1), 0x400000, instrs, addrs, true))
		lat = append(lat, c.Cycle()-before)
	}
	// Skip the first (cold I-cache); later blocks should each cost roughly a
	// memory access.
	var sum uint64
	for _, l := range lat[5:] {
		sum += l
	}
	avg := sum / uint64(len(lat)-5)
	if avg < 100 {
		t.Fatalf("dependent cold loads should cost ~memory latency per block, got %d", avg)
	}
}

func TestOOOStoreForwarding(t *testing.T) {
	ports := buildHierarchy()
	c := NewOOO(0, OOOWestmere(), ports, nil)
	addr := uint64(1 << 33)
	// Store to a line then immediately load it: the load should forward from
	// the store queue instead of paying a miss.
	instrs := []isa.Instruction{
		{Op: isa.OpStore, Dst: isa.RBX, Src1: isa.RBP, Bytes: 4},
		{Op: isa.OpLoad, Dst: isa.RAX, Src1: isa.RBP, Bytes: 4},
	}
	// First execution warms the I-cache (its cold fetch miss would otherwise
	// dominate); measure the second.
	c.SimulateBlock(mkBlock(1, 0x400000, instrs, []uint64{addr, addr}, true))
	before := c.Cycle()
	c.SimulateBlock(mkBlock(1, 0x400000, instrs, []uint64{addr + 128, addr + 128}, true))
	delta := c.Cycle() - before
	// Without forwarding the dependent load would wait for the store's miss
	// (>120 cycles); with forwarding the block costs far less. The store's own
	// drain happens in the background.
	if delta > 100 {
		t.Fatalf("store-to-load forwarding should avoid the load stall, block took %d cycles", delta)
	}
}

func TestOOOMispredictionPenalty(t *testing.T) {
	predictable := NewOOO(0, OOOWestmere(), buildHierarchy(), nil)
	unpredictable := NewOOO(0, OOOWestmere(), buildHierarchy(), nil)
	b := aluBlock(1, 6)
	for i := 0; i < 300; i++ {
		b.Taken = true
		predictable.SimulateBlock(b)
		b.Taken = (i*2654435761)%7 < 3 // pseudo-random pattern
		unpredictable.SimulateBlock(b)
	}
	_, missP := predictable.BranchStats()
	_, missU := unpredictable.BranchStats()
	if missU <= missP {
		t.Fatalf("random branches should mispredict more: %d vs %d", missU, missP)
	}
	if unpredictable.Cycle() <= predictable.Cycle() {
		t.Fatalf("mispredictions should cost cycles: %d vs %d", unpredictable.Cycle(), predictable.Cycle())
	}
}

func TestOOOFenceSerializes(t *testing.T) {
	withFence := NewOOO(0, OOOWestmere(), buildHierarchy(), nil)
	without := NewOOO(0, OOOWestmere(), buildHierarchy(), nil)
	addr := uint64(1 << 34)
	fenced := []isa.Instruction{
		{Op: isa.OpStore, Dst: isa.RBX, Src1: isa.RBP, Bytes: 4},
		{Op: isa.OpFence, Bytes: 3},
		{Op: isa.OpLoad, Dst: isa.RAX, Src1: isa.RBP, Bytes: 4},
	}
	unfenced := []isa.Instruction{
		{Op: isa.OpStore, Dst: isa.RBX, Src1: isa.RBP, Bytes: 4},
		{Op: isa.OpLoad, Dst: isa.RAX, Src1: isa.RBP, Bytes: 4},
	}
	for i := 0; i < 100; i++ {
		a := uint64(i*128) + addr
		withFence.SimulateBlock(mkBlock(uint64(i+1), 0x400000, fenced, []uint64{a, a + 64}, true))
		without.SimulateBlock(mkBlock(uint64(i+1), 0x400000, unfenced, []uint64{a, a + 64}, true))
	}
	if withFence.Cycle() <= without.Cycle() {
		t.Fatalf("fences should cost cycles: %d vs %d", withFence.Cycle(), without.Cycle())
	}
}

func TestOOOAddDelayAdvancesAllClocks(t *testing.T) {
	c := NewOOO(0, OOOWestmere(), buildHierarchy(), nil)
	c.SimulateBlock(aluBlock(1, 8))
	base := c.Cycle()
	c.AddDelay(1000)
	if c.Cycle() != base+1000 {
		t.Fatalf("AddDelay should advance the retire clock")
	}
	// New work starts after the delay (fetch clock also advanced).
	c.SimulateBlock(aluBlock(2, 8))
	if c.Cycle() <= base+1000 {
		t.Fatalf("post-delay work should land after the delay")
	}
	c.SetCycle(c.Cycle() - 10) // no rewind
	before := c.Cycle()
	c.SetCycle(before + 77)
	if c.Cycle() != before+77 {
		t.Fatalf("SetCycle fast-forward broken")
	}
}

func TestOOOConfigDefaults(t *testing.T) {
	c := NewOOO(0, OOOConfig{}, buildHierarchy(), nil)
	if c.cfg.IssueWidth != 4 || c.cfg.ROBSize != 128 || c.cfg.LoadQueueSize != 48 ||
		c.cfg.StoreQueueSize != 32 || c.cfg.MispredictCycles != 17 {
		t.Fatalf("zero config should get Westmere-like defaults: %+v", c.cfg)
	}
	// A degenerate config still works.
	c.SimulateBlock(aluBlock(1, 4))
	if c.Instrs() != 6 { // 4 ALU + cmp + jcc
		t.Fatalf("defaulted core should simulate, got %d instrs", c.Instrs())
	}
}

// Only unset fields take defaults: a 4-entry ROB is simulated as 4 entries.
func TestOOOConfigHonoursSmallROB(t *testing.T) {
	c := NewOOO(0, OOOConfig{ROBSize: 4}, buildHierarchy(), nil)
	c.SimulateBlock(aluBlock(1, 4))
	if c.cfg.ROBSize != 4 || len(c.rob) != 4 || c.cfg.IssueWidth != 4 {
		t.Fatalf("ROB of %d entries (config %+v), want 4 and the other defaults", len(c.rob), c.cfg)
	}
}

type recordingSink struct {
	accesses int
	hops     int
}

func (r *recordingSink) RecordAccess(coreID int, issueCycle uint64, write bool, hops []cache.Hop) []cache.Hop {
	r.accesses++
	r.hops += len(hops)
	return nil
}

func TestAccessRecorderReceivesHops(t *testing.T) {
	for _, mk := range []func() Core{
		func() Core { return NewIPC1(0, buildHierarchy(), nil) },
		func() Core { return NewOOO(0, OOOWestmere(), buildHierarchy(), nil) },
	} {
		c := mk()
		sink := &recordingSink{}
		c.SetRecorder(sink)
		c.SimulateBlock(loadBlock(1, []uint64{1 << 35}))
		if sink.accesses == 0 || sink.hops == 0 {
			t.Fatalf("%T: recorder should receive the block's accesses", c)
		}
		// Disabling the recorder stops recording.
		c.SetRecorder(nil)
		before := sink.accesses
		c.SimulateBlock(loadBlock(2, []uint64{1<<35 + 4096}))
		if sink.accesses != before {
			t.Fatalf("%T: recorder should not be called after being removed", c)
		}
	}
}

// countingPort counts the requests a core issues into one of its ports.
type countingPort struct {
	cache.Level
	n int
}

func (p *countingPort) Access(req *cache.Request) uint64 {
	p.n++
	return p.Level.Access(req)
}

type observerFunc struct {
	calls int
	lines map[uint64]int
}

func (o *observerFunc) ObserveAccess(lineAddr uint64, write bool, coreID int, cycle uint64) {
	o.calls++
	o.lines[lineAddr]++
}

// TestAccessObserverCalledOnce: the observer sees each core access exactly
// once, however many hierarchy levels the access then misses through.
func TestAccessObserverCalledOnce(t *testing.T) {
	for _, mk := range []func(MemPorts) Core{
		func(p MemPorts) Core { return NewIPC1(0, p, nil) },
		func(p MemPorts) Core { return NewOOO(0, OOOWestmere(), p, nil) },
	} {
		ports := buildHierarchy()
		l1i, l1d := &countingPort{Level: ports.L1I}, &countingPort{Level: ports.L1D}
		c := mk(MemPorts{L1I: l1i, L1D: l1d})
		obs := &observerFunc{lines: map[uint64]int{}}
		c.SetObserver(obs)
		addr := uint64(1 << 35) // cold: misses the L1 and the L2 into memory
		c.SimulateBlock(loadBlock(1, []uint64{addr}))
		if obs.calls == 0 || obs.calls != l1i.n+l1d.n {
			t.Fatalf("%T: observer called %d times for %d port accesses", c, obs.calls, l1i.n+l1d.n)
		}
		if got := obs.lines[cache.LineAddr(addr)]; got != 1 {
			t.Fatalf("%T: the load's line was observed %d times, want 1", c, got)
		}
	}
}

func TestOOONilDecodedBlockIgnored(t *testing.T) {
	c := NewOOO(0, OOOWestmere(), buildHierarchy(), nil)
	c.SimulateBlock(&trace.DynBlock{})
	if c.Instrs() != 0 {
		t.Fatalf("nil decoded block should be ignored")
	}
	s := NewIPC1(0, buildHierarchy(), nil)
	s.SimulateBlock(&trace.DynBlock{})
	if s.Instrs() != 0 {
		t.Fatalf("nil decoded block should be ignored by IPC1 too")
	}
}

func TestOOOWorkloadDriven(t *testing.T) {
	// Drive the OOO core with a real workload generator end to end and check
	// the aggregate behaviour is sane.
	p := trace.DefaultParams()
	p.BlocksPerThread = 1500
	w := trace.New("unit", p, 1)
	th := w.NewThread(0)
	c := NewOOO(0, OOOWestmere(), buildHierarchy(), nil)
	for {
		b := th.NextBlock()
		if b.Sync == trace.SyncDone {
			break
		}
		c.SimulateBlock(b)
	}
	if c.Instrs() < 5000 {
		t.Fatalf("workload should execute a meaningful number of instructions, got %d", c.Instrs())
	}
	ipc := float64(c.Instrs()) / float64(c.Cycle())
	if ipc < 0.05 || ipc > 4.0 {
		t.Fatalf("workload IPC out of plausible range: %.3f", ipc)
	}
	if c.cnt.Loads == 0 || c.cnt.Stores == 0 || c.cnt.Fetches == 0 {
		t.Fatalf("memory and fetch counters should be populated")
	}
}

func TestSchedulePortRespectsBusy(t *testing.T) {
	c := NewOOO(0, OOOWestmere(), buildHierarchy(), nil)
	c.growScratch(1) // as a first block does: builds the port window
	// The load port (port 2) can hold only one µop per cycle: scheduling two
	// loads at the same earliest cycle must place them on different cycles.
	c1, _ := c.schedulePort(isa.PortsLoad, 100)
	c2, _ := c.schedulePort(isa.PortsLoad, 100)
	if c1 == c2 {
		t.Fatalf("single-port contention should serialize: %d vs %d", c1, c2)
	}
	// ALU µops have three ports: three can share a cycle, the fourth moves on.
	cycles := map[uint64]int{}
	for i := 0; i < 4; i++ {
		cy, _ := c.schedulePort(isa.PortsALU, 500)
		cycles[cy]++
	}
	if cycles[500] != 3 {
		t.Fatalf("three ALU ports should be usable at cycle 500, got %v", cycles)
	}
	// Scheduling far beyond the window slides it without panicking.
	cy, _ := c.schedulePort(isa.PortsALU, 1_000_000)
	if cy != 1_000_000 {
		t.Fatalf("far-future scheduling should start at the requested cycle, got %d", cy)
	}
}

// Both core models count each conditional branch once, in their statistics,
// and BranchStats reads exactly those: the counts equal a standalone
// predictor fed the same (pc, taken) stream, the core's Reset brings them
// back to zero, and a replay after Reset counts the same again.
func TestBranchStatsMatchPredictor(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var blocks []*trace.DynBlock
	for i := 0; i < 600; i++ {
		if i%5 == 4 {
			blocks = append(blocks, loadBlock(uint64(i%7), []uint64{uint64(i) << 6})) // no branch
			continue
		}
		b := aluBlock(uint64(rng.Intn(24)), 1+rng.Intn(6))
		b.Taken = rng.Intn(4) != 0
		blocks = append(blocks, b)
	}
	ref := new(bpred.TwoLevel)
	var wantPred, wantMiss uint64
	for _, b := range blocks {
		if b.Decoded.CondBranch {
			wantPred++
			if !ref.PredictAndUpdate(b.BranchPC, b.Taken) {
				wantMiss++
			}
		}
	}
	if wantMiss == 0 || wantMiss == wantPred {
		t.Fatalf("stream is not a useful test: %d/%d mispredicted", wantMiss, wantPred)
	}
	for _, c := range []Core{
		NewIPC1(0, buildHierarchy(), nil),
		NewOOO(0, OOOWestmere(), buildHierarchy(), nil),
	} {
		for _, b := range blocks {
			c.SimulateBlock(b)
		}
		if pred, miss := c.BranchStats(); pred != wantPred || miss != wantMiss {
			t.Fatalf("%T: BranchStats = (%d, %d), want (%d, %d)", c, pred, miss, wantPred, wantMiss)
		}
		c.Reset()
		if pred, miss := c.BranchStats(); pred != 0 || miss != 0 {
			t.Fatalf("%T: BranchStats after Reset = (%d, %d)", c, pred, miss)
		}
		// The predictor was reset too: a replay mispredicts the same branches.
		for _, b := range blocks {
			c.SimulateBlock(b)
		}
		if pred, miss := c.BranchStats(); pred != wantPred || miss != wantMiss {
			t.Fatalf("%T: replay after Reset = (%d, %d), want (%d, %d)", c, pred, miss, wantPred, wantMiss)
		}
	}
}

// A built core holds no predictor table and no OOO scheduling state (port
// window, ROB, load/store queues, µop scratch) until its first block: a short
// job on a large chip touches few cores, and the others must cost only their
// structs, at construction and at every Reset. The first block builds the
// state and Reset keeps it, cleared.
func TestCoreStateBuiltOnFirstUse(t *testing.T) {
	reg := stats.NewRegistryIn("chip", arena.New())
	ipc1 := NewIPC1(0, buildHierarchy(), reg.ChildIdx("core", 0))
	ooo := NewOOO(1, OOOWestmere(), buildHierarchy(), reg.ChildIdx("core", 1))
	table := func(p *bpred.TwoLevel) int { return reflect.ValueOf(p).Elem().FieldByName("table").Len() }
	check := func(stage string, built bool) {
		t.Helper()
		if got := table(&ipc1.pred) > 0; got != built {
			t.Errorf("%s: IPC1 predictor table present = %v, want %v", stage, got, built)
		}
		if got := table(&ooo.pred) > 0; got != built {
			t.Errorf("%s: OOO predictor table present = %v, want %v", stage, got, built)
		}
		window := map[string]int{
			"portBusy": len(ooo.portBusy), "rob": len(ooo.rob), "loadQ": cap(ooo.loadQ),
			"storeQ": cap(ooo.storeQ), "doneBuf": cap(ooo.doneBuf),
		}
		for name, n := range window {
			if got := n > 0; got != built {
				t.Errorf("%s: OOO %s present = %v (size %d), want %v", stage, name, got, n, built)
			}
		}
	}
	check("built", false)
	ipc1.Reset()
	ooo.Reset()
	check("Reset before first use", false)

	b := aluBlock(1, 4)
	ipc1.SimulateBlock(b)
	ooo.SimulateBlock(b)
	check("after the first block", true)
	ipc1.Reset()
	ooo.Reset()
	check("Reset after the first block", true)
}
