package trace

import (
	"testing"
	"testing/quick"
)

func TestRandDeterminism(t *testing.T) {
	a := newRand(42)
	b := newRand(42)
	for i := 0; i < 100; i++ {
		if a.next() != b.next() {
			t.Fatalf("same seed should give same stream")
		}
	}
	z := newRand(0)
	if z.state == 0 {
		t.Fatalf("zero seed must be remapped")
	}
	v := z.float()
	if v < 0 || v >= 1 {
		t.Fatalf("float out of range: %f", v)
	}
	if n := z.intn(10); n < 0 || n >= 10 {
		t.Fatalf("intn out of range: %d", n)
	}
}

func TestSyncKindString(t *testing.T) {
	kinds := []SyncKind{SyncNone, SyncLockAcquire, SyncLockRelease, SyncBarrier, SyncBlocked, SyncDone}
	for _, k := range kinds {
		if k.String() == "" {
			t.Fatalf("sync kind %d has empty name", k)
		}
	}
	if SyncKind(99).String() != "sync(99)" {
		t.Fatalf("unknown kind fallback broken")
	}
}

func TestWorkloadConstruction(t *testing.T) {
	p := DefaultParams()
	p.StaticBlocks = 64
	w := New("test", p, 4)
	if w.NumStaticBlocks() != 64 {
		t.Fatalf("expected 64 static blocks, got %d", w.NumStaticBlocks())
	}
	if len(w.prog.Blocks) != 65 {
		t.Fatalf("expected 64 decoded blocks plus the spin block, got %d", len(w.prog.Blocks))
	}
	// Defensive clamps.
	w2 := New("clamped", Params{Seed: 1, BlocksPerThread: 10}, 0)
	if w2.Threads != 1 {
		t.Fatalf("threads should clamp to 1, got %d", w2.Threads)
	}
	if w2.Params.AvgBlockLen < 2 || w2.Params.StaticBlocks < 1 || w2.Params.ILP < 1 || w2.Params.NumLocks < 1 {
		t.Fatalf("parameter clamps not applied: %+v", w2.Params)
	}
}

func TestThreadProducesWorkAndTerminates(t *testing.T) {
	p := DefaultParams()
	p.BlocksPerThread = 200
	p.StaticBlocks = 32
	w := New("test", p, 2)
	th := w.NewThread(0)
	var blocks, instrs int
	for i := 0; i < 10000; i++ {
		b := th.NextBlock()
		if b.Sync == SyncDone {
			break
		}
		if b.Decoded == nil {
			t.Fatalf("non-done block must have a decoded BBL")
		}
		blocks++
		instrs += b.Decoded.Instrs
	}
	if !th.done {
		t.Fatalf("thread should terminate within the block budget")
	}
	if blocks < 150 || instrs == 0 {
		t.Fatalf("thread produced too little work: %d blocks, %d instrs", blocks, instrs)
	}
	// After done, it keeps returning done.
	if b := th.NextBlock(); b.Sync != SyncDone {
		t.Fatalf("done thread should keep reporting done")
	}
}

func TestThreadAddressesWithinRegions(t *testing.T) {
	p := DefaultParams()
	p.BlocksPerThread = 500
	p.WorkingSet = 1 << 16
	p.SharedWorkingSet = 1 << 16
	p.SharedFraction = 0.5
	w := New("test", p, 2)
	th0 := w.NewThread(0)
	th1 := w.NewThread(1)
	sharedLo := w.sharedBase
	sharedHi := sharedLo + p.SharedWorkingSet
	lockLo := w.LockAddr(p.NumLocks - 1)
	checkThread := func(th *Thread) (priv, shared int) {
		for i := 0; i < 2000; i++ {
			b := th.NextBlock()
			if b.Sync == SyncDone {
				break
			}
			for _, a := range b.Addrs {
				switch {
				case a >= sharedLo && a < sharedHi:
					shared++
				case a >= lockLo && a < sharedLo:
					// lock word
				case a >= 0x10_0000_0000 && a < 0x7f00_0000_0000:
					priv++
				default:
					t.Fatalf("address %#x outside every known region", a)
				}
			}
		}
		return
	}
	p0, s0 := checkThread(th0)
	p1, _ := checkThread(th1)
	if p0 == 0 || s0 == 0 || p1 == 0 {
		t.Fatalf("expected both private and shared accesses: %d/%d", p0, s0)
	}
}

func TestThreadPrivateRegionsDisjoint(t *testing.T) {
	p := DefaultParams()
	p.SharedFraction = 0
	p.WorkingSet = 1 << 20
	w := New("test", p, 4)
	t0 := w.NewThread(0)
	t3 := w.NewThread(3)
	if t0.privBase == t3.privBase {
		t.Fatalf("threads must have distinct private regions")
	}
	if t3.privBase < t0.privBase+p.WorkingSet {
		t.Fatalf("private regions overlap: %#x vs %#x", t0.privBase, t3.privBase)
	}
}

func TestSerialFractionPhases(t *testing.T) {
	p := DefaultParams()
	p.BlocksPerThread = 100
	p.SerialFraction = 0.3
	w := New("test", p, 4)

	// A non-zero serial fraction means thread 1 starts by waiting at a
	// barrier while thread 0 computes.
	th1 := w.NewThread(1)
	b := th1.NextBlock()
	if b.Sync != SyncBarrier {
		t.Fatalf("worker thread should first wait at the serial barrier, got %v", b.Sync)
	}
	th0 := w.NewThread(0)
	b = th0.NextBlock()
	if b.Sync != SyncNone {
		t.Fatalf("thread 0 should start with serial work, got %v", b.Sync)
	}
	// Thread 0 eventually reaches the same barrier.
	sawBarrier := false
	for i := 0; i < 10000; i++ {
		b = th0.NextBlock()
		if b.Sync == SyncBarrier {
			sawBarrier = true
			break
		}
	}
	if !sawBarrier {
		t.Fatalf("thread 0 never reached the post-serial barrier")
	}
}

func TestLockAcquireReleasePairing(t *testing.T) {
	p := DefaultParams()
	p.BlocksPerThread = 2000
	p.LockEvery = 10
	p.LockHoldBlocks = 3
	p.NumLocks = 4
	w := New("test", p, 2)
	th := w.NewThread(0)
	depth := 0
	acquires, releases := 0, 0
	for i := 0; i < 20000; i++ {
		b := th.NextBlock()
		if b.Sync == SyncDone {
			break
		}
		switch b.Sync {
		case SyncLockAcquire:
			acquires++
			depth++
			if depth > 1 {
				t.Fatalf("nested lock acquire at block %d", i)
			}
			if b.SyncID < 0 || b.SyncID >= p.NumLocks {
				t.Fatalf("lock id out of range: %d", b.SyncID)
			}
		case SyncLockRelease:
			releases++
			depth--
			if depth < 0 {
				t.Fatalf("release without acquire at block %d", i)
			}
		}
	}
	if acquires == 0 {
		t.Fatalf("expected critical sections to be generated")
	}
	if acquires != releases {
		t.Fatalf("unbalanced lock operations: %d acquires, %d releases", acquires, releases)
	}
}

func TestBarrierAndSyscallGeneration(t *testing.T) {
	p := DefaultParams()
	p.BlocksPerThread = 3000
	p.BarrierEvery = 50
	p.BlockedSyscallEvery = 400
	p.BlockedSyscallCycles = 5000
	w := New("test", p, 2)
	th := w.NewThread(1)
	barriers, syscalls := 0, 0
	for i := 0; i < 30000; i++ {
		b := th.NextBlock()
		if b.Sync == SyncDone {
			break
		}
		switch b.Sync {
		case SyncBarrier:
			barriers++
		case SyncBlocked:
			syscalls++
			if b.SyncArg != 5000 {
				t.Fatalf("blocked syscall should carry its duration, got %d", b.SyncArg)
			}
		}
	}
	if barriers < 10 {
		t.Fatalf("expected many barriers, got %d", barriers)
	}
	if syscalls < 2 {
		t.Fatalf("expected blocking syscalls, got %d", syscalls)
	}
}

// TestSpinBlockTargetsLockWord fills the spin-wait block, whose code is also
// every sync entry sequence, for lock 3: all its accesses go to the lock word.
func TestSpinBlockTargetsLockWord(t *testing.T) {
	w := New("test", DefaultParams(), 2)
	th := w.NewThread(0)
	b := th.fillLockDyn(th.w.spinBlock(), 3, SyncNone, 0)
	if len(b.Addrs) == 0 {
		t.Fatalf("spin block must access the lock word")
	}
	for _, a := range b.Addrs {
		if a != w.LockAddr(3) {
			t.Fatalf("spin block address %#x != lock addr %#x", a, w.LockAddr(3))
		}
	}
	if b.Decoded.Loads == 0 || b.Decoded.Stores == 0 {
		t.Fatalf("spin block should both read and write the lock word (cmpxchg)")
	}
}

func TestScaleWorkDividesBlocks(t *testing.T) {
	p := DefaultParams()
	p.BlocksPerThread = 1000
	p.ScaleWork = true
	count := func(threads int) int {
		w := New("test", p, threads)
		th := w.NewThread(0)
		n := 0
		for i := 0; i < 100000; i++ {
			b := th.NextBlock()
			if b.Sync == SyncDone {
				break
			}
			if b.Sync == SyncNone || b.Sync == SyncLockRelease {
				n++
			}
		}
		return n
	}
	one := count(1)
	four := count(4)
	if four >= one {
		t.Fatalf("scaled work should shrink per-thread blocks: 1t=%d 4t=%d", one, four)
	}
	if four < one/8 {
		t.Fatalf("per-thread work shrank too much: 1t=%d 4t=%d", one, four)
	}
}

func TestWorkloadRegistry(t *testing.T) {
	spec := SPECCPU2006()
	if len(spec) != 29 {
		t.Fatalf("SPEC CPU2006 should have 29 workloads, got %d", len(spec))
	}
	mt := Multithreaded()
	if len(mt) != 23 {
		t.Fatalf("multithreaded suite should have 23 workloads, got %d", len(mt))
	}
	if len(PARSECNames()) != 6 {
		t.Fatalf("PARSEC suite should have 6 workloads")
	}
	if len(Figure2Names()) != 10 {
		t.Fatalf("Figure 2 should have 10 workloads")
	}
	if len(Table4Names()) != 13 {
		t.Fatalf("Table 4 should have 13 workloads")
	}
	for _, n := range AllNames() {
		p, ok := Lookup(n)
		if !ok {
			t.Fatalf("registered workload %q not found by Lookup", n)
		}
		if p.WorkingSet == 0 || p.MemFraction <= 0 {
			t.Fatalf("workload %q has degenerate parameters: %+v", n, p)
		}
	}
	if _, ok := Lookup("no-such-workload"); ok {
		t.Fatalf("unknown workload should not resolve")
	}
	// Every name referenced by the figure lists must be registered.
	for _, group := range [][]string{PARSECNames(), Figure2Names(), Table4Names()} {
		for _, n := range group {
			if _, ok := Lookup(n); !ok {
				t.Fatalf("figure workload %q not registered", n)
			}
		}
	}
}

// Lookup hands out copies of the one registry: changing a returned Params
// does not change what the next Lookup returns.
func TestLookupReturnsCopies(t *testing.T) {
	if n, want := len(AllNames()), len(SPECCPU2006())+len(Multithreaded()); n != want {
		t.Fatalf("AllNames has %d workloads, want %d", n, want)
	}
	p, _ := Lookup("mcf")
	want := p
	p.WorkingSet++
	p.BlocksPerThread = 1
	if got, _ := Lookup("mcf"); got != want {
		t.Fatalf("changing a looked-up Params changed the registry: %+v, want %+v", got, want)
	}
}

func TestMustLookupPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("MustLookup of unknown workload should panic")
		}
	}()
	MustLookup("definitely-not-a-workload")
}

func TestWorkloadDeterminism(t *testing.T) {
	p := MustLookup("mcf")
	p.BlocksPerThread = 300
	run := func() []uint64 {
		w := New("mcf", p, 1)
		th := w.NewThread(0)
		var sig []uint64
		for i := 0; i < 2000; i++ {
			b := th.NextBlock()
			if b.Sync == SyncDone {
				break
			}
			sig = append(sig, b.Decoded.ID)
			for _, a := range b.Addrs {
				sig = append(sig, a)
			}
		}
		return sig
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("non-deterministic workload length: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic workload at element %d", i)
		}
	}
}

func TestMemoryIntensityOrdering(t *testing.T) {
	// Sanity check on the registry: mcf (memory-bound) must be configured
	// with a much larger working set and lower stride-friendliness than
	// namd (compute-bound).
	mcf := MustLookup("mcf")
	namd := MustLookup("namd")
	if mcf.WorkingSet <= namd.WorkingSet {
		t.Fatalf("mcf should have a larger working set than namd")
	}
	if mcf.StridedFraction >= namd.StridedFraction {
		t.Fatalf("mcf should be less stride-friendly than namd")
	}
	stream := MustLookup("stream")
	if stream.MemFraction < 0.5 || stream.StridedFraction < 0.99 {
		t.Fatalf("stream should be a pure streaming workload: %+v", stream)
	}
}

// Property: every block produced by any thread has one address per memory
// slot of its decoded BBL, and sync metadata is internally consistent.
func TestThreadBlockInvariants(t *testing.T) {
	f := func(seed uint64, threadsRaw uint8) bool {
		p := DefaultParams()
		p.Seed = seed
		p.BlocksPerThread = 100
		p.LockEvery = 17
		p.LockHoldBlocks = 2
		p.BarrierEvery = 43
		p.SharedFraction = 0.2
		p.SharedWorkingSet = 1 << 16
		threads := int(threadsRaw%8) + 1
		w := New("prop", p, threads)
		th := w.NewThread(int(seed) % threads)
		for i := 0; i < 1500; i++ {
			b := th.NextBlock()
			if b.Sync == SyncDone {
				return true
			}
			if b.Decoded == nil {
				return false
			}
			slots := 0
			for _, u := range b.Program.Uops(b.Decoded) {
				if u.MemSlot >= 0 && int(u.MemSlot)+1 > slots {
					slots = int(u.MemSlot) + 1
				}
			}
			if len(b.Addrs) < slots {
				return false
			}
			if (b.Sync == SyncLockAcquire || b.Sync == SyncLockRelease) &&
				(b.SyncID < 0 || b.SyncID >= p.NumLocks) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Every decoded block of every registered workload, its spin block
// included, carries the memory-slot count a scan of its µops finds: the
// count dynamic blocks read instead of scanning.
func TestMemSlotsMatchesScan(t *testing.T) {
	for _, name := range AllNames() {
		w := New(name, MustLookup(name), 1)
		for i := range w.prog.Blocks {
			d := &w.prog.Blocks[i]
			n := 0
			for _, u := range w.prog.Uops(d) {
				n = max(n, int(u.MemSlot)+1)
			}
			if int(d.MemSlots) != n {
				t.Fatalf("%s: block %d has MemSlots %d, its µops need %d", name, d.ID, d.MemSlots, n)
			}
		}
	}
}
