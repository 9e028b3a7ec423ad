package dsl

import (
	"reflect"
	"testing"

	"repro/internal/lru"
)

// The LRU's own behaviour (eviction, racing misses, failed builds, the
// counters and the gauge) is tested in internal/lru; these tests hold
// ParseCached's contract.

func TestParseCachedMatchesParse(t *testing.T) {
	const src = "{input: {[Tensor[8, 8, 3]], []}, output: {[Tensor[2]], []}}"
	want, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		got, err := ParseCached(src)
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
	if _, err := ParseCached("{not a program}"); err == nil {
		t.Fatal("invalid program accepted")
	}
}

// ParseCached counts under cache="program", the series the benchmark's
// plan hit ratio reads.
func TestParseCachedCountsHitsAndMisses(t *testing.T) {
	const src = "{input: {[Tensor[5, 5, 3]], []}, output: {[Tensor[7]], []}}" // parsed by no other test
	hits0, misses0 := lru.Lookups("program")
	for i := 0; i < 10; i++ {
		if _, err := ParseCached(src); err != nil {
			t.Fatal(err)
		}
	}
	hits, misses := lru.Lookups("program")
	if hits, misses = hits-hits0, misses-misses0; misses != 1 || hits != 9 {
		t.Fatalf("%d hits and %d misses, want 9 and 1", hits, misses)
	}
}
