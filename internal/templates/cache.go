package templates

import (
	"slices"

	"repro/internal/dsl"
	"repro/internal/lru"
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
// path. It counts under cache="candidates".

// DefaultCandidateCacheCapacity bounds the grid cache. A grid is ~35
// Candidate values; 256 grids cover far more distinct programs than any
// deployment submits.
const DefaultCandidateCacheCapacity = 256

type grid struct {
	cands []Candidate
	tpl   *Template
}

var candidateCache = lru.New[string, grid]("candidates", DefaultCandidateCacheCapacity)

// GenerateCached is Generate(prog, nil) behind the process-wide grid
// cache. The returned slice is a fresh copy on every call — callers append
// to and index into candidate slices, and a shared backing array would let
// one job's append clobber another's grid. The Candidate values inside
// (including Normalizer pointers) are shared: both are immutable after
// generation, and the copy keeps them bit-identical to an uncached
// Generate.
func GenerateCached(prog dsl.Program) ([]Candidate, *Template, error) {
	g, err := candidateCache.Get(prog.String(), func() (grid, error) {
		cands, tpl, err := Generate(prog, nil)
		return grid{cands, tpl}, err
	})
	if err != nil {
		return nil, nil, err
	}
	return slices.Clone(g.cands), g.tpl, nil
}
