package gp

import (
	"math"

	"repro/internal/linalg"
)

// TuneResult reports the outcome of a hyperparameter search.
type TuneResult struct {
	Kernel Kernel  // the winning kernel
	LML    float64 // its (summed) log marginal likelihood
}

// TuneRBF grid-searches the RBF signal variance and length scale by
// maximizing the summed log marginal likelihood over the provided training
// function samples. Each element of samples is a full reward vector over the
// arms (one training user's accuracies across all models, Appendix A).
//
// features are the per-arm quality vectors used to measure distances;
// noiseVar is the fixed observation noise variance. variances and
// lengthScales are the grids; when nil, sensible defaults spanning several
// orders of magnitude are used. TuneRBF panics if samples is empty or a
// sample's length differs from len(features).
//
// Cost: one distance pass per call, then per grid point one map of the
// distances through its RBF and one jittered Cholesky, plus a forward and a
// backward solve per sample: the bits of factorizing per sample.
func TuneRBF(features [][]float64, samples [][]float64, noiseVar float64, variances, lengthScales []float64) TuneResult {
	if len(samples) == 0 {
		panic("gp: TuneRBF requires at least one training sample")
	}
	if variances == nil {
		variances = []float64{0.001, 0.01, 0.05, 0.1, 0.5, 1}
	}
	if lengthScales == nil {
		lengthScales = []float64{0.01, 0.05, 0.1, 0.5, 1, 2, 5}
	}
	n := len(features)
	d2, cov := linalg.NewMatrix(n, n), linalg.NewMatrix(n, n)
	linalg.SqDistUpper(d2, features)
	best := TuneResult{LML: math.Inf(-1)}
	for _, v := range variances {
		for _, l := range lengthScales {
			k := RBF{Variance: v, LengthScale: l}
			// sumLML keeps nothing of cov once it returns, so the next
			// grid point may overwrite it.
			lml := sumLML(d2.MapUpper(cov, k.fromSqDist), samples, noiseVar)
			if lml > best.LML {
				best = TuneResult{Kernel: k, LML: lml}
			}
		}
	}
	return best
}

// sumLML sums the log marginal likelihood of each centered sample under the
// zero-mean GP with prior covariance cov. Samples are centered (their mean
// is subtracted) because the working prior is zero-mean while raw
// accuracies live around their task's baseline.
//
// Every sample observes arms 0..K−1, so one factor, refactor's, serves all;
// a further sample costs refactor's forward solve and the likelihood.
func sumLML(cov *linalg.Matrix, samples [][]float64, noiseVar float64) float64 {
	g := New(cov, noiseVar)
	for arm := range cov.Rows() {
		g.arms = append(g.arms, arm)
	}
	for _, s := range samples {
		if len(s) != len(g.arms) {
			panic("gp: tuning sample length does not match number of arms")
		}
	}
	var total float64
	for i, s := range samples {
		g.ys = center(s)
		if i == 0 {
			if err := g.refactor(); err != nil {
				// A kernel whose covariance cannot be factorized over the
				// samples is disqualified outright.
				return math.Inf(-1)
			}
		} else {
			g.w = g.chol.ForwardSolve(g.ys)
		}
		total += g.LogMarginalLikelihood()
	}
	return total
}

// center returns s minus its mean.
func center(s []float64) []float64 {
	var mean float64
	for _, v := range s {
		mean += v
	}
	mean /= float64(len(s))
	out := make([]float64, len(s))
	for i, v := range s {
		out[i] = v - mean
	}
	return out
}
