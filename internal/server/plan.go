package server

import (
	"repro/internal/codegen"
	"repro/internal/dsl"
	"repro/internal/gp"
	"repro/internal/linalg"
	"repro/internal/templates"
)

// programPlan is everything a job derives from its program alone, built
// once per program and shared by every job of it: the candidate grid and
// template, the candidate names and their arm indices, the GP prior and
// the generated Julia types. Nothing in it is written after it is built —
// jobs, trainers and responses read it — so one plan serves any number of
// jobs concurrently. The prior in particular is handed to gp.New, which
// adopts it and never writes it.
type programPlan struct {
	program    string                // the canonical dsl.Program String(), the cache key
	template   string                // the matched Figure 4 template
	candidates []templates.Candidate // arm order
	names      []string              // candidates[i].Name()
	arms       map[string]int        // name → arm index
	prior      *linalg.Matrix        // RBF covariance over candidateFeature
	julia      string
}

// priorKernel and noiseVar are the service's GP prior: an RBF kernel over
// candidateFeature and the observation noise variance.
var priorKernel = gp.RBF{Variance: 0.05, LengthScale: 0.5}

const noiseVar = 1e-4

// newPlan builds the plan of a parsed program whose String() is key.
func newPlan(prog dsl.Program, key string) (*programPlan, error) {
	cands, tpl, err := templates.GenerateCached(prog)
	if err != nil {
		return nil, err
	}
	p := &programPlan{
		program:    key,
		template:   tpl.Name,
		candidates: cands,
		names:      make([]string, len(cands)),
		arms:       make(map[string]int, len(cands)),
		julia:      codegen.JuliaTypes(prog),
	}
	features := make([][]float64, len(cands))
	for i, c := range cands {
		p.names[i] = c.Name()
		p.arms[p.names[i]] = i
		features[i] = candidateFeature(c)
	}
	p.prior = gp.CovarianceMatrix(priorKernel, features)
	return p, nil
}

// planCacheCapacity bounds a scheduler's plan cache (cache="plan", keyed
// by the program's canonical String()): as many programs as the
// candidate-grid cache holds grids. An evicted plan lives on in the jobs
// that hold it; the next job of its program builds a new one, whose build
// is the one lookup its program makes in the grid cache
// (cache="candidates").
const planCacheCapacity = templates.DefaultCandidateCacheCapacity
