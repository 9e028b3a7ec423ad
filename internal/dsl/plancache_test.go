package dsl

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
)

const cachedProg = "{input: {[Tensor[8, 8, 3]], []}, output: {[Tensor[2]], []}}"

// cacheCounts reads one cache's easeml_plan_cache_* series: the event
// counters (process-global, so tests diff two reads taken around the
// section they measure) and the resident-entries gauge.
type cacheCounts struct {
	hits, misses, evictions uint64
	entries                 float64
}

func countsOf(cache string) cacheCounts {
	return cacheCounts{
		hits:      CacheEventCounter(cache, "hit").Value(),
		misses:    CacheEventCounter(cache, "miss").Value(),
		evictions: CacheEventCounter(cache, "eviction").Value(),
		entries:   CacheEntriesGauge(cache).Value(),
	}
}

// since is the event traffic from before to c, with c's entries.
func (c cacheCounts) since(before cacheCounts) cacheCounts {
	return cacheCounts{c.hits - before.hits, c.misses - before.misses, c.evictions - before.evictions, c.entries}
}

// programSince is the program cache's traffic since before.
func programSince(before cacheCounts) cacheCounts { return countsOf("program").since(before) }

func TestParseCachedMatchesParse(t *testing.T) {
	ResetPlanCache()
	want, err := Parse(cachedProg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		got, err := ParseCached(cachedProg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("lookup %d: cached program differs from Parse:\n got %#v\nwant %#v", i, got, want)
		}
		if got.String() != want.String() {
			t.Fatalf("lookup %d: String() drifted: %q vs %q", i, got.String(), want.String())
		}
	}
}

func TestParseCachedCountsHitsAndMisses(t *testing.T) {
	ResetPlanCache()
	before := countsOf("program")
	if _, err := ParseCached(cachedProg); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 9; i++ {
		if _, err := ParseCached(cachedProg); err != nil {
			t.Fatal(err)
		}
	}
	st := programSince(before)
	if st.misses != 1 || st.hits != 9 {
		t.Fatalf("counts = %+v, want 1 miss and 9 hits", st)
	}
	if st.entries != 1 {
		t.Fatalf("entries = %g, want 1", st.entries)
	}
	if hr := float64(st.hits) / float64(st.hits+st.misses); hr != 0.9 {
		t.Fatalf("hit rate %g, want 0.9", hr)
	}
}

func TestParseCachedDoesNotCacheErrors(t *testing.T) {
	ResetPlanCache()
	before := countsOf("program")
	for i := 0; i < 3; i++ {
		if _, err := ParseCached("{not a program}"); err == nil {
			t.Fatal("invalid program accepted")
		}
	}
	st := programSince(before)
	if st.entries != 0 {
		t.Fatalf("error result was cached: %+v", st)
	}
	if st.misses != 3 {
		t.Fatalf("misses = %d, want 3 (errors never become hits)", st.misses)
	}
}

func TestPlanCacheEvicts(t *testing.T) {
	SetPlanCacheCapacity(4)
	defer ResetPlanCache()
	before := countsOf("program")
	progs := make([]string, 8)
	for i := range progs {
		progs[i] = fmt.Sprintf("{input: {[Tensor[%d]], [next]}, output: {[Tensor[2]], []}}", i+2)
		if _, err := ParseCached(progs[i]); err != nil {
			t.Fatal(err)
		}
	}
	st := programSince(before)
	if st.entries != 4 {
		t.Fatalf("entries = %g, want capacity 4", st.entries)
	}
	if st.evictions != 4 {
		t.Fatalf("evictions = %d, want 4", st.evictions)
	}
	// The LRU keeps the most recent four; the oldest re-parse is a miss.
	if _, err := ParseCached(progs[7]); err != nil {
		t.Fatal(err)
	}
	if got := programSince(before).hits; got != 1 {
		t.Fatalf("hits = %d, want 1 (most recent program resident)", got)
	}
	if _, err := ParseCached(progs[0]); err != nil {
		t.Fatal(err)
	}
	if got := programSince(before).hits; got != 1 {
		t.Fatalf("hits = %d after touching evicted program, want still 1", got)
	}
}

func TestPlanCacheLRUOrder(t *testing.T) {
	SetPlanCacheCapacity(2)
	defer ResetPlanCache()
	a := "{input: {[Tensor[2]], [next]}, output: {[Tensor[2]], []}}"
	b := "{input: {[Tensor[3]], [next]}, output: {[Tensor[2]], []}}"
	c := "{input: {[Tensor[4]], [next]}, output: {[Tensor[2]], []}}"
	for _, p := range []string{a, b} {
		if _, err := ParseCached(p); err != nil {
			t.Fatal(err)
		}
	}
	// Touch a so b becomes the LRU victim when c is inserted.
	if _, err := ParseCached(a); err != nil {
		t.Fatal(err)
	}
	if _, err := ParseCached(c); err != nil {
		t.Fatal(err)
	}
	before := countsOf("program")
	if _, err := ParseCached(a); err != nil {
		t.Fatal(err)
	}
	if programSince(before).hits != 1 {
		t.Fatal("recently-used program was evicted")
	}
	if _, err := ParseCached(b); err != nil {
		t.Fatal(err)
	}
	if programSince(before).hits != 1 {
		t.Fatal("least-recently-used program survived past capacity")
	}
}

func TestParseCachedConcurrent(t *testing.T) {
	ResetPlanCache()
	before := countsOf("program")
	want := MustParse(cachedProg)
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				src := fmt.Sprintf("{input: {[Tensor[%d]], [next]}, output: {[Tensor[2]], []}}", 2+(i+g)%5)
				if _, err := ParseCached(src); err != nil {
					errs <- err
					return
				}
				got, err := ParseCached(cachedProg)
				if err != nil {
					errs <- err
					return
				}
				if got.String() != want.String() {
					errs <- fmt.Errorf("goroutine %d: cached program drifted to %q", g, got.String())
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := programSince(before)
	if st.hits+st.misses != 8*100*2 {
		t.Fatalf("lookups = %d, want %d", st.hits+st.misses, 8*100*2)
	}
}
