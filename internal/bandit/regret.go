package bandit

import "fmt"

// RegretTracker accumulates the regret quantities of §3's problem
// formulation for a single tenant, given the (unknown to the algorithm) true
// mean rewards of each arm:
//
//   - classic cumulative regret  Rt  = Σ (µ* − µ_{a_s})
//   - cost-aware regret          R̃t = Σ c_{a_s}·(µ* − µ_{a_s})   (Theorem 1)
//   - ease.ml regret             R′t = Σ (µ* − best-so-far)
//
// with R′t ≤ Rt always (§3, "Relation to Model Selection").
type RegretTracker struct {
	means  []float64
	costs  []float64
	muStar float64

	cumulative float64
	costAware  float64
	easeML     float64
	best       float64
	haveBest   bool
	steps      int
}

// NewRegretTracker builds a tracker from the true arm means and costs.
// It panics if the slices are empty or mismatched.
func NewRegretTracker(means, costs []float64) *RegretTracker {
	if len(means) == 0 || len(means) != len(costs) {
		panic(fmt.Sprintf("bandit: regret tracker with %d means, %d costs", len(means), len(costs)))
	}
	r := &RegretTracker{means: means, costs: costs, muStar: maxFloat(means)}
	return r
}

// MuStar returns µ*, the best true mean.
func (r *RegretTracker) MuStar() float64 { return r.muStar }

// Record accounts for one play of arm k.
func (r *RegretTracker) Record(k int) {
	inst := r.muStar - r.means[k]
	r.cumulative += inst
	r.costAware += float64(r.costs[k] * inst)
	if !r.haveBest || r.means[k] > r.best {
		r.best = r.means[k]
		r.haveBest = true
	}
	r.easeML += r.muStar - r.best
	r.steps++
}

// Cumulative returns the classic cumulative regret Rt.
func (r *RegretTracker) Cumulative() float64 { return r.cumulative }

// CostAware returns the cost-aware cumulative regret R̃t.
func (r *RegretTracker) CostAware() float64 { return r.costAware }

// EaseML returns the ease.ml regret R′t (based on the best model so far).
func (r *RegretTracker) EaseML() float64 { return r.easeML }

// Steps returns the number of recorded plays.
func (r *RegretTracker) Steps() int { return r.steps }

// AverageRegret returns Rt/t, the quantity that must vanish for a regret-free
// algorithm. It returns 0 before any play.
func (r *RegretTracker) AverageRegret() float64 {
	if r.steps == 0 {
		return 0
	}
	return r.cumulative / float64(r.steps)
}

// InstantaneousLoss returns µ* minus the best true mean found so far — the
// accuracy-loss metric l_{i,T} of Appendix A (eq. 2).
func (r *RegretTracker) InstantaneousLoss() float64 {
	if !r.haveBest {
		return r.muStar
	}
	return r.muStar - r.best
}
