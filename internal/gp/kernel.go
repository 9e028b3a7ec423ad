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

// Matern52 is the Matérn kernel with ν = 5/2:
// k(r) = Variance · (1 + √5 r/ℓ + 5r²/(3ℓ²)) · exp(−√5 r/ℓ).
// The paper's Theorems 2–3 discussion covers Matérn kernels explicitly.
type Matern52 struct {
	Variance    float64
	LengthScale float64
}

// Eval implements Kernel.
func (k Matern52) Eval(x, y []float64) float64 { return k.fromSqDist(linalg.SqDist(x, y)) }

func (k Matern52) fromSqDist(d2 float64) float64 {
	r := math.Sqrt(d2)
	a := math.Sqrt(5) * r / k.LengthScale
	return k.Variance * (1 + a + a*a/3) * math.Exp(-a)
}

// Name implements Kernel.
func (k Matern52) Name() string {
	return fmt.Sprintf("matern52(s²=%g,ℓ=%g)", k.Variance, k.LengthScale)
}

// Matern32 is the Matérn kernel with ν = 3/2:
// k(r) = Variance · (1 + √3 r/ℓ) · exp(−√3 r/ℓ).
type Matern32 struct {
	Variance    float64
	LengthScale float64
}

// Eval implements Kernel.
func (k Matern32) Eval(x, y []float64) float64 { return k.fromSqDist(linalg.SqDist(x, y)) }

func (k Matern32) fromSqDist(d2 float64) float64 {
	r := math.Sqrt(d2)
	a := math.Sqrt(3) * r / k.LengthScale
	return k.Variance * (1 + a) * math.Exp(-a)
}

// Name implements Kernel.
func (k Matern32) Name() string {
	return fmt.Sprintf("matern32(s²=%g,ℓ=%g)", k.Variance, k.LengthScale)
}

// Linear is the (homogeneous) linear kernel k(x,y) = Variance · ⟨x,y⟩.
// The paper's regret-bound discussion (after Theorem 3) analyzes the linear
// kernel case, where the per-tenant information gain is O(log |T(i)|).
type Linear struct {
	Variance float64
}

// Eval implements Kernel.
func (k Linear) Eval(x, y []float64) float64 { return k.Variance * linalg.Dot(x, y) }

// Name implements Kernel.
func (k Linear) Name() string { return fmt.Sprintf("linear(s²=%g)", k.Variance) }

// stationary is a kernel of the squared distance alone: Eval(x, y) is
// fromSqDist(linalg.SqDist(x, y)), bit for bit.
type stationary interface {
	Kernel
	fromSqDist(d2 float64) float64
}

// Sum combines kernels additively; a typical use is RBF + White.
type Sum struct {
	A, B Kernel
}

// Eval implements Kernel.
func (k Sum) Eval(x, y []float64) float64 { return k.A.Eval(x, y) + k.B.Eval(x, y) }

// Name implements Kernel.
func (k Sum) Name() string { return k.A.Name() + "+" + k.B.Name() }

// White is the white-noise kernel: Variance on identical inputs, 0 elsewhere.
// "Identical" means equal element-wise; it is intended for exact feature
// vectors, not near-duplicates.
type White struct {
	Variance float64
}

// Eval implements Kernel.
func (k White) Eval(x, y []float64) float64 {
	if len(x) != len(y) {
		return 0
	}
	for i := range x {
		if x[i] != y[i] {
			return 0
		}
	}
	return k.Variance
}

// Name implements Kernel.
func (k White) Name() string { return fmt.Sprintf("white(s²=%g)", k.Variance) }

// CovarianceMatrix builds the K×K prior covariance over the given feature
// vectors: Σ[i,j] = kernel(features[i], features[j]). The result is exactly
// symmetric.
//
// Cost: one Eval per pair i ≤ j, except for RBF and the Matérn kernels:
// one distance pass (linalg.SqDistUpper, straight into the result), then
// one fromSqDist per pair, the bits Eval would give.
func CovarianceMatrix(k Kernel, features [][]float64) *linalg.Matrix {
	n := len(features)
	m := linalg.NewMatrix(n, n)
	if s, ok := k.(stationary); ok {
		linalg.SqDistUpper(m, features)
		return m.MapUpper(m, s.fromSqDist)
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
