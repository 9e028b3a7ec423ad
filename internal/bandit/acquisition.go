package bandit

import (
	"fmt"
	"math"
	"math/rand"
)

// This file implements the alternative acquisition functions the paper
// names in §4.5 ("it is not clear how to integrate other algorithms such as
// GP-EI and GP-PI into a multi-tenant framework") and the classic UCB1 rule
// whose K·log T regret §3.1 contrasts with GP-UCB. They plug into the same
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

// ThompsonAcquisition is (independent-arm) Thompson sampling: each arm's
// score is one draw from its marginal posterior, optionally divided by the
// arm's cost. A natural randomized baseline absent from the paper's
// evaluation; included for the acquisition ablation.
type ThompsonAcquisition struct {
	Rng       *rand.Rand
	CostAware bool
}

// Name implements Acquisition.
func (a ThompsonAcquisition) Name() string {
	if a.CostAware {
		return "thompson/cost"
	}
	return "thompson"
}

// Score implements Acquisition.
func (a ThompsonAcquisition) Score(mu, sigma, best, cost, beta float64) float64 {
	draw := mu + float64(sigma*a.Rng.NormFloat64())
	if a.CostAware {
		return draw / cost
	}
	return draw
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

// UCB1 is the classic (GP-free) UCB1 bandit of §3.1's discussion: each arm
// is modeled independently, scores are ȳₖ + √(2·ln t / nₖ), and every arm
// must be tried once before the rule applies. Its regret is O(K·log T) —
// the bound the paper contrasts with GP-UCB's √(T·log K) — and it serves as
// the "no cross-model generalization" ablation baseline.
type UCB1 struct {
	costs   []float64
	sums    []float64
	counts  []int
	t       int
	tried   []bool
	nTried  int
	bestArm int
	bestY   float64
	haveObs bool
}

// NewUCB1 creates a UCB1 bandit over arms with the given costs.
func NewUCB1(costs []float64) *UCB1 {
	if len(costs) == 0 {
		panic("bandit: UCB1 needs at least one arm")
	}
	for i, c := range costs {
		if c <= 0 {
			panic(fmt.Sprintf("bandit: UCB1 arm %d has non-positive cost %g", i, c))
		}
	}
	return &UCB1{
		costs:   costs,
		sums:    make([]float64, len(costs)),
		counts:  make([]int, len(costs)),
		tried:   make([]bool, len(costs)),
		bestArm: -1,
	}
}

// NumArms returns K.
func (u *UCB1) NumArms() int { return len(u.costs) }

// Exhausted reports whether every arm has been played (model selection
// plays each arm at most once).
func (u *UCB1) Exhausted() bool { return u.nTried == len(u.costs) }

// Tried reports whether arm k was played.
func (u *UCB1) Tried(k int) bool { return u.tried[k] }

// SelectArm returns the untried arm with the highest UCB1 score. Untried
// arms have infinite score, so the rule degenerates to "first untried" until
// everything has one sample — exactly UCB1's forced initialization (§3.1:
// "the UCB algorithm must play all arms once or twice in the initial
// step").
func (u *UCB1) SelectArm() (arm int, score float64) {
	if u.Exhausted() {
		return -1, math.Inf(-1)
	}
	arm = -1
	score = math.Inf(-1)
	for k := range u.costs {
		if u.tried[k] {
			continue
		}
		s := math.Inf(1) // never sampled ⇒ must explore
		if u.counts[k] > 0 {
			mean := u.sums[k] / float64(u.counts[k])
			s = mean + math.Sqrt(2*math.Log(float64(u.t+1))/float64(u.counts[k]))
		}
		if s > score || arm == -1 {
			score = s
			arm = k
		}
	}
	return arm, score
}

// Observe records reward y for arm k.
func (u *UCB1) Observe(k int, y float64) {
	if u.tried[k] {
		panic(fmt.Sprintf("bandit: UCB1 arm %d played twice", k))
	}
	u.tried[k] = true
	u.nTried++
	u.t++
	u.sums[k] += y
	u.counts[k]++
	if !u.haveObs || y > u.bestY {
		u.bestY = y
		u.bestArm = k
		u.haveObs = true
	}
}

// Best returns the best arm observed so far.
func (u *UCB1) Best() (arm int, y float64, ok bool) { return u.bestArm, u.bestY, u.haveObs }
