package templates

import (
	"container/list"
	"sync"

	"repro/internal/dsl"
	"repro/internal/telemetry"
)

// Candidate-grid cache: the second half of the plan cache. Parsing a
// program is cheap next to regenerating its candidate grid (template
// match + normalization sweep), and the fleet agent's per-lease job fetch
// did both for every uncached job. Grids are keyed by the program's
// canonical String() — Parse is deterministic and String round-trips, so
// two sources that parse to the same Program share one grid.
//
// Only the nil-ks default sweep is cached: every production call site
// passes ks=nil, and a custom sweep is an experiment knob, not a serving
// path. Counters land in the shared easeml_plan_cache_* families under
// cache="candidates" (registered once, in internal/dsl).

// DefaultCandidateCacheCapacity bounds the grid cache. A grid is ~35
// Candidate values; 256 grids cover far more distinct programs than any
// deployment submits.
const DefaultCandidateCacheCapacity = 256

type gridEntry struct {
	key   string
	cands []Candidate
	tpl   *Template
}

type gridCache struct {
	mu      sync.Mutex
	cap     int
	entries map[string]*list.Element
	lru     *list.List

	hitC, missC, evictC *telemetry.Counter
	entriesG            *telemetry.Gauge
}

func newGridCache(capacity int) *gridCache {
	return &gridCache{
		cap:      capacity,
		entries:  make(map[string]*list.Element),
		lru:      list.New(),
		hitC:     dsl.CacheEventCounter("candidates", "hit"),
		missC:    dsl.CacheEventCounter("candidates", "miss"),
		evictC:   dsl.CacheEventCounter("candidates", "eviction"),
		entriesG: dsl.CacheEntriesGauge("candidates"),
	}
}

var candidateCache = newGridCache(DefaultCandidateCacheCapacity)

// GenerateCached is Generate(prog, nil) behind the process-wide grid
// cache. The returned slice is a fresh copy on every call — callers append
// to and index into candidate slices, and a shared backing array would let
// one job's append clobber another's grid. The Candidate values inside
// (including Normalizer pointers) are shared: both are immutable after
// generation, and the copy keeps them bit-identical to an uncached
// Generate.
func GenerateCached(prog dsl.Program) ([]Candidate, *Template, error) {
	key := prog.String()
	c := candidateCache
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		ent := el.Value.(*gridEntry)
		c.lru.MoveToFront(el)
		c.hitC.Inc()
		cands := make([]Candidate, len(ent.cands))
		copy(cands, ent.cands)
		tpl := ent.tpl
		c.mu.Unlock()
		return cands, tpl, nil
	}
	c.missC.Inc()
	c.mu.Unlock()

	cands, tpl, err := Generate(prog, nil)
	if err != nil {
		return nil, nil, err
	}
	stored := make([]Candidate, len(cands))
	copy(stored, cands)

	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		el.Value = &gridEntry{key: key, cands: stored, tpl: tpl}
		c.lru.MoveToFront(el)
	} else {
		c.entries[key] = c.lru.PushFront(&gridEntry{key: key, cands: stored, tpl: tpl})
		for c.lru.Len() > c.cap {
			tail := c.lru.Back()
			c.lru.Remove(tail)
			delete(c.entries, tail.Value.(*gridEntry).key)
			c.evictC.Inc()
		}
	}
	c.entriesG.Set(float64(c.lru.Len()))
	c.mu.Unlock()
	return cands, tpl, nil
}

// ResetCandidateCache empties the grid cache — test hook for cold-state
// hit-rate measurements.
func ResetCandidateCache() {
	c := candidateCache
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries = make(map[string]*list.Element)
	c.lru = list.New()
	c.entriesG.Set(0)
}
