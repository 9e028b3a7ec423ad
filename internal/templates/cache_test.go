package templates

import (
	"reflect"
	"testing"

	"repro/internal/dsl"
	"repro/internal/lru"
)

const imgSrc = "{input: {[Tensor[8, 8, 3]], []}, output: {[Tensor[2]], []}}"

func TestGenerateCachedBitIdentical(t *testing.T) {
	// The counters are process-global: count the lookups below as deltas.
	hits0, misses0 := lru.Lookups("candidates")
	prog := dsl.MustParse(imgSrc)
	want, wantTpl, err := Generate(prog, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		got, gotTpl, err := GenerateCached(prog)
		if err != nil {
			t.Fatal(err)
		}
		if gotTpl.Name != wantTpl.Name {
			t.Fatalf("lookup %d: template %q, want %q", i, gotTpl.Name, wantTpl.Name)
		}
		if len(got) != len(want) {
			t.Fatalf("lookup %d: %d candidates, want %d", i, len(got), len(want))
		}
		for j := range got {
			if got[j].Name() != want[j].Name() {
				t.Fatalf("lookup %d: candidate %d is %q, want %q", i, j, got[j].Name(), want[j].Name())
			}
			if !reflect.DeepEqual(got[j], want[j]) {
				t.Fatalf("lookup %d: candidate %d differs structurally from uncached Generate", i, j)
			}
		}
	}
	// One grid build per process: the first lookup here misses unless an
	// earlier test generated the same program.
	hits, misses := lru.Lookups("candidates")
	if h, m := hits-hits0, misses-misses0; m > 1 || h+m != 3 {
		t.Fatalf("%d misses + %d hits, want 3 lookups with at most 1 miss", m, h)
	}
}

func TestGenerateCachedReturnsIndependentSlices(t *testing.T) {
	prog := dsl.MustParse(imgSrc)
	a, _, err := GenerateCached(prog)
	if err != nil {
		t.Fatal(err)
	}
	// Appending through one caller's slice must never leak into another's:
	// a shared backing array here would corrupt a concurrent job's grid.
	_ = append(a[:0:len(a)], Candidate{Model: "clobber"})
	a[0] = Candidate{Model: "overwritten"}
	b, _, err := GenerateCached(prog)
	if err != nil {
		t.Fatal(err)
	}
	if b[0].Model == "overwritten" || b[0].Model == "clobber" {
		t.Fatal("cached grid shares a backing array with a previous caller")
	}
}

func TestGenerateCachedErrorNotCached(t *testing.T) {
	// Only valid programs reach GenerateCached in production (Parse
	// validates first); an empty Program still matches the catch-all
	// auto-encoder row, so errors are not reachable here — assert the
	// cache stays consistent for the degenerate program instead.
	var zero dsl.Program
	c1, _, err := GenerateCached(zero)
	if err != nil {
		t.Fatalf("degenerate program: %v", err)
	}
	c2, _, err := GenerateCached(zero)
	if err != nil {
		t.Fatal(err)
	}
	if len(c1) != len(c2) {
		t.Fatalf("grid size drifted: %d vs %d", len(c1), len(c2))
	}
}
