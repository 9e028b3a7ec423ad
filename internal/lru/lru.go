// Package lru is the one bounded LRU cache behind the service's reuse of
// what a program determines: parsed programs (dsl), candidate grids
// (templates) and a scheduler's program plans (server).
//
// Every cache counts into the easeml_plan_cache_* families under its
// name's cache label: hits, misses and evictions in
// easeml_plan_cache_events_total, resident entries in
// easeml_plan_cache_entries. The families are registered here at package
// init, so they are in the exposition from the first scrape.
package lru

import (
	"sync"

	"repro/internal/telemetry"
)

var (
	cacheEvents = telemetry.Default().CounterVec(
		"easeml_plan_cache_events_total",
		"Plan-cache lookups by cache (program, candidates, plan) and event (hit, miss, eviction).",
		"cache", "event")
	cacheEntries = telemetry.Default().GaugeVec(
		"easeml_plan_cache_entries",
		"Entries currently resident per plan cache.",
		"cache")
)

// series is one cache name's easeml_plan_cache_* children. Caches of one
// name share them: the entries gauge shows the cache that changed last.
type series struct {
	hits, misses, evictions *telemetry.Counter
	entries                 *telemetry.Gauge
}

var (
	seriesMu sync.Mutex
	byName   = map[string]*series{}
)

// seriesOf returns name's series, looking its children up once per name
// (a child lookup allocates its label key; a scheduler makes a cache per
// construction).
func seriesOf(name string) *series {
	seriesMu.Lock()
	defer seriesMu.Unlock()
	s := byName[name]
	if s == nil {
		s = &series{
			hits:      cacheEvents.With(name, "hit"),
			misses:    cacheEvents.With(name, "miss"),
			evictions: cacheEvents.With(name, "eviction"),
			entries:   cacheEntries.With(name),
		}
		byName[name] = s
	}
	return s
}

// Lookups returns the hits and misses counted under the cache label name
// so far. The counters are process-global: tests diff two reads.
func Lookups(name string) (hits, misses uint64) {
	s := seriesOf(name)
	return s.hits.Value(), s.misses.Value()
}

// node is one entry, linked into the recency ring. Key, value and links
// in one node make an insert one allocation; a container/list element
// holding a key/value pair takes two.
type node[K comparable, V any] struct {
	key        K
	val        V
	prev, next *node[K, V]
}

// Cache is a concurrency-safe map of at most capacity entries that evicts
// the least recently used one. Its lock is held only around the map and
// the ring, never across a build.
type Cache[K comparable, V any] struct {
	mu       sync.Mutex
	capacity int
	nodes    map[K]*node[K, V]
	root     node[K, V] // ring sentinel: root.next is the most recently used
	s        *series
}

// New returns an empty cache of at most capacity (≥ 1) entries counting
// under the cache label name.
func New[K comparable, V any](name string, capacity int) *Cache[K, V] {
	c := &Cache[K, V]{capacity: capacity, nodes: make(map[K]*node[K, V]), s: seriesOf(name)}
	c.root.prev, c.root.next = &c.root, &c.root
	return c
}

// Get returns the value cached under key, calling build on a miss. A
// failed build is returned and not cached. Misses racing on one key each
// build, and all of them return the value the first to finish inserted,
// so every caller sees one value per resident key. Inserting past
// capacity evicts from the least recently used end.
func (c *Cache[K, V]) Get(key K, build func() (V, error)) (V, error) {
	c.mu.Lock()
	if n, ok := c.nodes[key]; ok {
		c.toFront(n)
		c.mu.Unlock()
		c.s.hits.Inc()
		return n.val, nil
	}
	c.mu.Unlock()
	c.s.misses.Inc()

	v, err := build()
	if err != nil {
		var zero V
		return zero, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if n, ok := c.nodes[key]; ok {
		c.toFront(n)
		return n.val, nil
	}
	n := &node[K, V]{key: key, val: v}
	c.nodes[key] = n
	c.toFront(n)
	for len(c.nodes) > c.capacity {
		tail := c.root.prev
		c.unlink(tail)
		delete(c.nodes, tail.key)
		c.s.evictions.Inc()
	}
	c.s.entries.Set(float64(len(c.nodes)))
	return v, nil
}

// toFront makes n the most recently used entry, linking it in if it is
// not in the ring yet.
func (c *Cache[K, V]) toFront(n *node[K, V]) {
	if n.prev != nil {
		c.unlink(n)
	}
	n.prev, n.next = &c.root, c.root.next
	n.prev.next, n.next.prev = n, n
}

func (c *Cache[K, V]) unlink(n *node[K, V]) {
	n.prev.next, n.next.prev = n.next, n.prev
	n.prev, n.next = nil, nil
}
