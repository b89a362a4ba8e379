package zsim

import (
	"sync"

	"zsim/internal/arena"
	"zsim/internal/trace"
)

// programBudget bounds the process-wide translation cache: the arena bytes of
// the translated programs it keeps. A named workload's program takes 44 KB
// (canneal, 256 static blocks) to 0.72 MB (gcc, 4,096), so the cache holds
// between about 46 and 750 programs.
const programBudget = 32 << 20

// translations is the process's one translation cache, shared by every
// Simulator: a program is translated once per process, as zsim decodes each
// static block once in Pin's code cache, not once per simulator. Like a
// sync.Pool it is process state by design; what it returns depends only on
// the key, so no caller can observe another's use of it.
var translations = newProgramCache(programBudget)

// TranslationCacheBytes reports the arena bytes of the translated programs the
// process-wide translation cache keeps, at most its 32 MiB budget.
func TranslationCacheBytes() uint64 {
	translations.mu.Lock()
	defer translations.mu.Unlock()
	return translations.bytes
}

// programKey is trace.NewIn's complete input. NewIn is a pure function of
// it, so a program held under an equal key is the one NewIn would build.
type programKey struct {
	name    string
	params  WorkloadParams
	threads int
}

// program is one translated workload and the footprint of the arena its code
// lives in. A Workload is immutable after NewIn, so simulators on any number
// of goroutines may run the same program at once.
type program struct {
	w      *trace.Workload
	chunks int
	bytes  uint64
}

// programCache maps program keys to translated programs under a byte budget,
// evicting the least recently used program first; a program bigger than the
// whole budget is translated but not kept. Eviction only drops the cache's
// reference: a simulator that holds an evicted program keeps running it, and
// the program is freed when the last holder lets go.
type programCache struct {
	budget uint64

	mu      sync.Mutex
	entries map[programKey]*cachedProgram
	bytes   uint64 // sum of entries' bytes, at most budget between calls
	tick    uint64 // use clock: each lookup stamps its entry with the next tick
}

type cachedProgram struct {
	program
	used uint64
}

func newProgramCache(budget uint64) *programCache {
	return &programCache{budget: budget, entries: make(map[programKey]*cachedProgram)}
}

// get returns the program for key, translating it on a miss. Translation runs
// outside the lock, so simulators translating different programs do not wait
// on each other; when two miss on the same key at once, the first to finish
// is kept and both get it.
func (c *programCache) get(key programKey) program {
	if p, ok := c.lookup(key); ok {
		return p
	}
	a := arena.New()
	w := trace.NewIn(a, key.name, key.params, key.threads)
	chunks, bytes := a.Stats()
	fresh := program{w: w, chunks: chunks, bytes: bytes}

	c.mu.Lock()
	defer c.mu.Unlock()
	c.tick++
	if e, ok := c.entries[key]; ok {
		e.used = c.tick
		return e.program
	}
	if fresh.bytes > c.budget {
		return fresh // would evict everything else and then itself
	}
	c.entries[key] = &cachedProgram{fresh, c.tick}
	c.bytes += fresh.bytes
	for c.bytes > c.budget {
		c.evictOldest()
	}
	return fresh
}

// lookup returns the cached program for key and marks it used.
func (c *programCache) lookup(key programKey) (program, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	if !ok {
		return program{}, false
	}
	c.tick++
	e.used = c.tick
	return e.program, true
}

// evictOldest drops the least recently used entry. The cache holds few
// entries, so a scan is cheaper than keeping a recency list.
func (c *programCache) evictOldest() {
	var oldest programKey
	var victim *cachedProgram
	for k, e := range c.entries {
		if victim == nil || e.used < victim.used {
			oldest, victim = k, e
		}
	}
	delete(c.entries, oldest)
	c.bytes -= victim.bytes
}
