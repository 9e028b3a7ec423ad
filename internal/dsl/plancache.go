package dsl

import (
	"container/list"
	"hash/fnv"
	"sync"

	"repro/internal/telemetry"
)

// Plan cache: a process-wide, bounded LRU of parsed+validated Programs
// keyed by the FNV-64a hash of their source text. Submit, recovery, the
// easeml facade, and the fleet agent's per-lease job fetch all parse the
// same handful of programs over and over; a repeated-program workload
// (the serving steady state) should pay the lexer/parser exactly once.
//
// The cache stores only successful parses: error results are cheap to
// recompute and caching them would let a transient source string pin a
// slot. Hash collisions are survived, not assumed away — each entry keeps
// its full source and a hit requires string equality, so a colliding
// program is simply a miss that overwrites the slot's LRU position.
//
// Metrics: the easeml_plan_cache_* families are registered here at package
// init (so they appear in the exposition stream from the first scrape,
// before any parse happens) and shared with the candidate-grid cache in
// internal/templates via CacheEventCounter/CacheEntriesGauge — metriclint
// allows one registration site per family.
var (
	cacheEvents = telemetry.Default().CounterVec(
		"easeml_plan_cache_events_total",
		"Plan-cache lookups by cache (program, candidates) and event (hit, miss, eviction).",
		"cache", "event")
	cacheEntries = telemetry.Default().GaugeVec(
		"easeml_plan_cache_entries",
		"Entries currently resident per plan cache.",
		"cache")
)

// CacheEventCounter returns the shared easeml_plan_cache_events_total
// child for one (cache, event) pair. Exported so sibling caches (the
// candidate-grid cache in internal/templates) count into the same family
// without a second registration site.
func CacheEventCounter(cache, event string) *telemetry.Counter {
	return cacheEvents.With(cache, event)
}

// CacheEntriesGauge returns the shared easeml_plan_cache_entries child for
// one cache name.
func CacheEntriesGauge(cache string) *telemetry.Gauge {
	return cacheEntries.With(cache)
}

// DefaultPlanCacheCapacity bounds the process-wide program cache. Programs
// are a few hundred bytes each; 1024 of them is noise next to one job's
// candidate stores, and far beyond the distinct-program count of any
// realistic tenant population.
const DefaultPlanCacheCapacity = 1024

type planEntry struct {
	src  string
	prog Program
}

// planCache is the LRU proper. The lock is held only around map/list
// bookkeeping — never across a Parse, so concurrent misses on different
// programs parse in parallel (both then race to insert; last write wins,
// which is harmless because parses are deterministic).
type planCache struct {
	mu      sync.Mutex
	cap     int
	entries map[uint64]*list.Element // hash → element whose Value is *planEntry
	lru     *list.List               // front = most recently used

	hitC, missC, evictC *telemetry.Counter
	entriesG            *telemetry.Gauge
}

func newPlanCache(capacity int) *planCache {
	return &planCache{
		cap:      capacity,
		entries:  make(map[uint64]*list.Element),
		lru:      list.New(),
		hitC:     CacheEventCounter("program", "hit"),
		missC:    CacheEventCounter("program", "miss"),
		evictC:   CacheEventCounter("program", "eviction"),
		entriesG: CacheEntriesGauge("program"),
	}
}

var programCache = newPlanCache(DefaultPlanCacheCapacity)

func hashSource(src string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(src))
	return h.Sum64()
}

// lookup returns the cached Program for src, if present.
func (c *planCache) lookup(src string, hash uint64) (Program, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[hash]; ok {
		ent := el.Value.(*planEntry)
		if ent.src == src {
			c.lru.MoveToFront(el)
			c.hitC.Inc()
			return ent.prog, true
		}
	}
	c.missC.Inc()
	return Program{}, false
}

// insert stores a freshly parsed Program, evicting from the LRU tail past
// capacity. A concurrent insert of the same hash replaces the entry in
// place (deterministic parse ⇒ identical value).
func (c *planCache) insert(src string, hash uint64, prog Program) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[hash]; ok {
		el.Value = &planEntry{src: src, prog: prog}
		c.lru.MoveToFront(el)
		return
	}
	c.entries[hash] = c.lru.PushFront(&planEntry{src: src, prog: prog})
	for c.lru.Len() > c.cap {
		tail := c.lru.Back()
		c.lru.Remove(tail)
		delete(c.entries, hashSource(tail.Value.(*planEntry).src))
		c.evictC.Inc()
	}
	c.entriesG.Set(float64(c.lru.Len()))
}

// reset drops every entry (the telemetry counters stay cumulative — they
// are process-global by design).
func (c *planCache) reset(capacity int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.cap = capacity
	c.entries = make(map[uint64]*list.Element)
	c.lru = list.New()
	c.entriesG.Set(0)
}

// ParseCached is Parse behind the process-wide plan cache: a hit returns
// the cached parsed+validated Program without touching the lexer; a miss
// parses, and caches the Program only on success. The returned Program
// shares the cached entry's backing slices — callers already treat parsed
// Programs as immutable (every consumer since the seed does), and the
// cache makes that contract load-bearing.
func ParseCached(src string) (Program, error) {
	hash := hashSource(src)
	if prog, ok := programCache.lookup(src, hash); ok {
		return prog, nil
	}
	prog, err := Parse(src)
	if err != nil {
		return Program{}, err
	}
	programCache.insert(src, hash, prog)
	return prog, nil
}

// ResetPlanCache empties the program cache and restores the default
// capacity. Tests use it to measure hit rates from a known-cold state; the
// counts themselves are the easeml_plan_cache_* families.
func ResetPlanCache() { programCache.reset(DefaultPlanCacheCapacity) }

// SetPlanCacheCapacity resizes (and empties) the program cache — test
// hook for exercising eviction without forging a thousand programs.
func SetPlanCacheCapacity(n int) {
	if n < 1 {
		n = 1
	}
	programCache.reset(n)
}
