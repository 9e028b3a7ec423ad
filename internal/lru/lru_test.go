package lru

import (
	"errors"
	"fmt"
	"sync"
	"testing"
)

// counts is what one cache name's series read.
type counts struct {
	hits, misses, evictions uint64
	entries                 float64
}

// tally returns a reader of name's events since the call, and of its
// entries gauge as it stands. Each test counts under a name of its own;
// the series are process-global, so under -count=N they start where the
// previous run left them.
func tally(name string) func() counts {
	s := seriesOf(name)
	h, m, e := s.hits.Value(), s.misses.Value(), s.evictions.Value()
	return func() counts {
		return counts{s.hits.Value() - h, s.misses.Value() - m, s.evictions.Value() - e, s.entries.Value()}
	}
}

// get looks key up, building its own decimal form on a miss, and reports
// whether the lookup built.
func get(t *testing.T, c *Cache[int, string], key int) (built bool) {
	t.Helper()
	v, err := c.Get(key, func() (string, error) { built = true; return fmt.Sprint(key), nil })
	if err != nil || v != fmt.Sprint(key) {
		t.Fatalf("Get(%d) = %q, %v", key, v, err)
	}
	return built
}

func TestCapacityBound(t *testing.T) {
	c, since := New[int, string]("test-capacity", 4), tally("test-capacity")
	for k := range 8 {
		if !get(t, c, k) {
			t.Fatalf("first lookup of %d hit", k)
		}
	}
	if n := len(c.nodes); n != 4 {
		t.Fatalf("%d entries resident, capacity 4", n)
	}
	if got := since(); got != (counts{hits: 0, misses: 8, evictions: 4, entries: 4}) {
		t.Fatalf("counts %+v, want 8 misses, 4 evictions, 4 entries", got)
	}
	// The four most recent stay; the oldest four were evicted.
	for k := 4; k < 8; k++ {
		if get(t, c, k) {
			t.Fatalf("recent key %d was evicted", k)
		}
	}
	if !get(t, c, 0) {
		t.Fatal("the oldest key survived past capacity")
	}
}

func TestEvictionOrder(t *testing.T) {
	c := New[int, string]("test-order", 2)
	get(t, c, 1)
	get(t, c, 2)
	get(t, c, 1) // touch 1, so 2 is the least recently used
	get(t, c, 3)
	if get(t, c, 1) {
		t.Fatal("the recently used key was evicted")
	}
	if !get(t, c, 2) {
		t.Fatal("the least recently used key survived past capacity")
	}
}

func TestFailedBuildNotCached(t *testing.T) {
	c, since := New[int, string]("test-failed", 4), tally("test-failed")
	boom := errors.New("boom")
	builds := 0
	for range 3 {
		v, err := c.Get(7, func() (string, error) { builds++; return "partial", boom })
		if !errors.Is(err, boom) || v != "" {
			t.Fatalf("Get = %q, %v; want the zero value and the build's error", v, err)
		}
	}
	if builds != 3 || len(c.nodes) != 0 {
		t.Fatalf("%d builds, %d entries: a failed build was cached", builds, len(c.nodes))
	}
	if got := since(); got.misses != 3 || got.hits != 0 {
		t.Fatalf("counts %+v, want 3 misses (a failure never becomes a hit)", got)
	}
	if !get(t, c, 7) || get(t, c, 7) {
		t.Fatal("a build that succeeds after failures is not cached")
	}
}

// Misses racing on one key each build, and every caller gets the value
// the first to finish inserted.
func TestRacingMissesReturnFirstInsert(t *testing.T) {
	const racers = 8
	c, since := New[string, *int]("test-race", 16), tally("test-race")
	var (
		started sync.WaitGroup
		release = make(chan struct{})
		done    sync.WaitGroup
		got     [racers]*int
	)
	started.Add(racers)
	done.Add(racers)
	for g := range racers {
		go func() {
			defer done.Done()
			v, err := c.Get("k", func() (*int, error) {
				started.Done()
				<-release // every racer has missed before any inserts
				return &g, nil
			})
			if err != nil {
				t.Error(err)
			}
			got[g] = v
		}()
	}
	started.Wait()
	close(release)
	done.Wait()
	for g := range racers {
		if got[g] != got[0] {
			t.Fatalf("racer %d got value %d, racer 0 got %d", g, *got[g], *got[0])
		}
	}
	if v, _ := c.Get("k", func() (*int, error) { return nil, errors.New("built again") }); v != got[0] {
		t.Fatal("the resident value is not the one the racers returned")
	}
	if n := since(); n.misses != racers || n.hits != 1 || n.entries != 1 {
		t.Fatalf("counts %+v, want %d misses, 1 hit, 1 entry", n, racers)
	}

	// Mixed keys under contention, past capacity: every lookup returns its
	// key's value.
	mixed, sinceMixed := New[int, string]("test-race-mixed", 4), tally("test-race-mixed")
	done.Add(racers)
	for g := range racers {
		go func() {
			defer done.Done()
			for i := range 200 {
				k := (i + g) % 9
				v, err := mixed.Get(k, func() (string, error) { return fmt.Sprint(k), nil })
				if err != nil || v != fmt.Sprint(k) {
					t.Errorf("Get(%d) = %q, %v", k, v, err)
					return
				}
			}
		}()
	}
	done.Wait()
	n := sinceMixed()
	if n.hits+n.misses != racers*200 || len(mixed.nodes) > 4 || n.entries != float64(len(mixed.nodes)) {
		t.Fatalf("counts %+v with %d resident, want %d lookups and at most 4 entries", n, len(mixed.nodes), racers*200)
	}
}

func TestCountersAndGauge(t *testing.T) {
	c, since := New[int, string]("test-counters", 2), tally("test-counters")
	hits0, misses0 := Lookups("test-counters")
	get(t, c, 1) // miss
	get(t, c, 1) // hit
	get(t, c, 2) // miss
	get(t, c, 3) // miss, evicts 1
	get(t, c, 3) // hit
	if got := since(); got != (counts{hits: 2, misses: 3, evictions: 1, entries: 2}) {
		t.Fatalf("counts %+v, want 2 hits, 3 misses, 1 eviction, 2 entries", got)
	}
	if hits, misses := Lookups("test-counters"); hits-hits0 != 2 || misses-misses0 != 3 {
		t.Fatalf("Lookups moved by %d, %d; want 2, 3", hits-hits0, misses-misses0)
	}
}
