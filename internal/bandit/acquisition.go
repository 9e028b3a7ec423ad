package bandit

import "math"

// This file implements the alternative acquisition functions the paper
// names in §4.5 ("it is not clear how to integrate other algorithms such as
// GP-EI and GP-PI into a multi-tenant framework"). They plug into the same
// GPUCB bandit as alternative SelectArmBy policies, enabling the ablation
// benches DESIGN.md calls out.

// Acquisition scores an arm from its posterior (mean µ, std σ), the best
// reward observed so far, the arm's cost and the current exploration
// coefficient β. Higher is better.
type Acquisition interface {
	Name() string
	Score(mu, sigma, best, cost, beta float64) float64
}

// UCBAcquisition is the paper's default: µ + √(β/c)·σ (cost-aware GP-UCB,
// §3.2); with CostAware false the classic Algorithm 1 rule.
type UCBAcquisition struct {
	CostAware bool
}

// Name implements Acquisition.
func (a UCBAcquisition) Name() string {
	if a.CostAware {
		return "gp-ucb/cost"
	}
	return "gp-ucb"
}

// Score implements Acquisition.
func (a UCBAcquisition) Score(mu, sigma, best, cost, beta float64) float64 {
	if a.CostAware {
		beta /= cost
	}
	return mu + float64(math.Sqrt(beta)*sigma)
}

// EIAcquisition is GP-EI (Snoek et al.): the expected improvement over the
// best observed reward, optionally per unit cost ("EI per second", the
// cost-aware heuristic of Snoek et al. §3.2 referenced by the paper).
type EIAcquisition struct {
	CostAware bool
	// Xi is the exploration margin ξ ≥ 0 added to the incumbent (default
	// 0.01 when zero).
	Xi float64
}

// Name implements Acquisition.
func (a EIAcquisition) Name() string {
	if a.CostAware {
		return "gp-ei/cost"
	}
	return "gp-ei"
}

// Score implements Acquisition.
func (a EIAcquisition) Score(mu, sigma, best, cost, beta float64) float64 {
	xi := a.Xi
	if xi == 0 {
		xi = 0.01
	}
	var ei float64
	if sigma <= 0 {
		if d := mu - best - xi; d > 0 {
			ei = d
		}
	} else {
		z := (mu - best - xi) / sigma
		ei = float64((mu-best-xi)*stdNormCDF(z)) + float64(sigma*stdNormPDF(z))
	}
	if a.CostAware {
		ei /= cost
	}
	return ei
}

// PIAcquisition is GP-PI (Kushner 1964): the probability that the arm
// improves on the best observed reward by at least ξ.
type PIAcquisition struct {
	CostAware bool
	Xi        float64
}

// Name implements Acquisition.
func (a PIAcquisition) Name() string {
	if a.CostAware {
		return "gp-pi/cost"
	}
	return "gp-pi"
}

// Score implements Acquisition.
func (a PIAcquisition) Score(mu, sigma, best, cost, beta float64) float64 {
	xi := a.Xi
	if xi == 0 {
		xi = 0.01
	}
	var pi float64
	if sigma <= 0 {
		if mu > best+xi {
			pi = 1
		}
	} else {
		pi = stdNormCDF((mu - best - xi) / sigma)
	}
	if a.CostAware {
		pi /= cost
	}
	return pi
}

// stdNormPDF is the standard normal density.
func stdNormPDF(z float64) float64 {
	return math.Exp(-z*z/2) / math.Sqrt(2*math.Pi)
}

// stdNormCDF is the standard normal CDF via erf.
func stdNormCDF(z float64) float64 {
	return 0.5 * (1 + math.Erf(z/math.Sqrt2))
}

// SelectArmBy returns the untried arm maximizing the given acquisition and
// the arm's score. It shares the GPUCB state (posterior, best-so-far, local
// clock) but bypasses the UCB-specific SelectArm cache. It returns
// arm == -1 when exhausted.
func (b *GPUCB) SelectArmBy(acq Acquisition) (arm int, score float64) {
	if b.Exhausted() {
		return -1, math.Inf(-1)
	}
	beta := b.Beta()
	mu, sigma := b.Posterior()
	_, best, hasBest := b.Best()
	if !hasBest {
		// Before any observation EI/PI compare against the prior mean, the
		// standard cold-start convention.
		best = b.cfg.Mean0
	}
	arm = -1
	score = math.Inf(-1)
	for k := 0; k < b.NumArms(); k++ {
		if b.Tried(k) {
			continue
		}
		if s := acq.Score(mu[k], sigma[k], best, b.cfg.Costs[k], beta); s > score {
			score = s
			arm = k
		}
	}
	return arm, score
}
