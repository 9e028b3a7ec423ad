// Package gp implements the Gaussian-Process machinery that ease.ml's
// model-selection subsystem is built on (paper §3, Algorithm 1 lines 6–7 and
// Appendix A).
//
// The process is over a *finite* arm set: the K candidate models of one
// tenant. Each model k has a feature vector x_k — its "quality vector", i.e.
// the accuracies the model achieved on the training users (Appendix A) — and
// the prior covariance between two models is Σ[j,j′] = kernel(x_j, x_j′).
// After observing rewards y₁..y_t for arms a₁..a_t, the posterior for any arm
// k is Gaussian with
//
//	µt(k)  = Σt(k)ᵀ (Σt + σ²I)⁻¹ y
//	σt²(k) = Σ(k,k) − Σt(k)ᵀ (Σt + σ²I)⁻¹ Σt(k)
//
// exactly as in Algorithm 1 of the paper. Kernel hyperparameters are tuned by
// maximizing the log marginal likelihood (the paper defers to scikit-learn's
// LML optimizer; we grid-search, which is adequate for the 1–2 parameter
// kernels used here).
package gp

import (
	"fmt"
	"math"

	"repro/internal/linalg"
)

// Kernel is a positive semi-definite covariance function over feature
// vectors.
type Kernel interface {
	// Eval returns the covariance k(x, y).
	Eval(x, y []float64) float64
	// Name returns a short identifier used in logs and test output.
	Name() string
}

// RBF is the squared-exponential (Gaussian) kernel
// k(x,y) = Variance · exp(−‖x−y‖² / (2·LengthScale²)).
type RBF struct {
	Variance    float64 // signal variance s²; must be > 0
	LengthScale float64 // ℓ; must be > 0
}

// Eval implements Kernel.
func (k RBF) Eval(x, y []float64) float64 { return k.fromSqDist(linalg.SqDist(x, y)) }

func (k RBF) fromSqDist(d2 float64) float64 {
	return k.Variance * math.Exp(-d2/(2*k.LengthScale*k.LengthScale))
}

// Name implements Kernel.
func (k RBF) Name() string { return fmt.Sprintf("rbf(s²=%g,ℓ=%g)", k.Variance, k.LengthScale) }

// CovarianceMatrix builds the K×K prior covariance over the given feature
// vectors: Σ[i,j] = kernel(features[i], features[j]). The result is exactly
// symmetric.
//
// Cost: one Eval per pair i ≤ j, except for RBF: one distance pass
// (linalg.SqDistUpper, straight into the result), then one fromSqDist per
// pair, the bits Eval would give.
func CovarianceMatrix(k Kernel, features [][]float64) *linalg.Matrix {
	n := len(features)
	m := linalg.NewMatrix(n, n)
	if r, ok := k.(RBF); ok {
		linalg.SqDistUpper(m, features)
		return m.MapUpper(m, r.fromSqDist)
	}
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := k.Eval(features[i], features[j])
			m.Set(i, j, v)
			m.Set(j, i, v)
		}
	}
	return m
}
