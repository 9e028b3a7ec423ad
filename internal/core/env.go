// Package core implements the paper's primary contribution: multi-tenant,
// cost-aware model selection (§4). It composes the per-tenant GP-UCB bandits
// of internal/bandit with a user-picking policy and provides every policy the
// paper discusses or evaluates:
//
//   - FCFS — the strawman of §4.1 with Θ(T) regret,
//   - ROUNDROBIN — §4.2 (Theorem 2),
//   - RANDOM — the §5.3 baseline,
//   - GREEDY — §4.3 / Algorithm 2 (Theorem 3), with the empirical
//     confidence bounds σ̃ and the max-gap candidate rule,
//   - HYBRID — §4.4, greedy with freeze detection (s = 10), the default
//     ease.ml scheduler,
//
// together with the MOSTCITED / MOSTRECENT model-picking heuristics of §5.2
// and the simulation loop, cost accounting and accuracy-loss metrics of
// Appendix A.
package core

import (
	"fmt"

	"repro/internal/dataset"
)

// Env is the training environment the scheduler interacts with: playing
// (user, arm) yields an observed accuracy and costs execution time. The
// ground-truth best quality per user is exposed for loss accounting only —
// schedulers never read it.
//
// Implementations: MatrixEnv (dataset replay, the paper's protocol) and
// internal/trainsim's simulator (live training runs).
type Env interface {
	// NumUsers returns the number of tenants n.
	NumUsers() int
	// NumModels returns the number of candidate models K_i of user i.
	NumModels(user int) int
	// Reward returns the observed accuracy of training model arm for user.
	Reward(user, arm int) float64
	// Cost returns the execution cost c_{i,k} of training model arm for
	// user. Must be positive and stable across calls.
	Cost(user, arm int) float64
	// BestQuality returns µ*_i, the best achievable quality of user i
	// (used only for regret/loss metrics). Must be stable across calls: a
	// Simulation reads it once per user.
	BestQuality(user int) float64
}

// MatrixEnv replays a quality/cost matrix — the experiment protocol of §5
// where each (user, model) pair has one measured accuracy and cost.
type MatrixEnv struct {
	Quality [][]float64 // Quality[user][arm]
	Costs   [][]float64 // Costs[user][arm]
}

// NewMatrixEnv builds a MatrixEnv over the given users (rows) of a dataset.
// If users is nil, all rows are used.
func NewMatrixEnv(d *dataset.Dataset, users []int) *MatrixEnv {
	if users == nil {
		users = make([]int, d.NumUsers())
		for i := range users {
			users[i] = i
		}
	}
	e := &MatrixEnv{}
	for _, u := range users {
		e.Quality = append(e.Quality, d.Quality[u])
		e.Costs = append(e.Costs, d.Cost[u])
	}
	return e
}

// NumUsers implements Env.
func (e *MatrixEnv) NumUsers() int { return len(e.Quality) }

// NumModels implements Env.
func (e *MatrixEnv) NumModels(user int) int { return len(e.Quality[user]) }

// Reward implements Env.
func (e *MatrixEnv) Reward(user, arm int) float64 { return e.Quality[user][arm] }

// Cost implements Env.
func (e *MatrixEnv) Cost(user, arm int) float64 { return e.Costs[user][arm] }

// BestQuality implements Env.
func (e *MatrixEnv) BestQuality(user int) float64 {
	best := e.Quality[user][0]
	for _, q := range e.Quality[user][1:] {
		if q > best {
			best = q
		}
	}
	return best
}

// TotalCost returns the cost of training every model for every user — the
// denominator of the "% of total cost" axis.
func (e *MatrixEnv) TotalCost() float64 {
	var total float64
	for i := range e.Costs {
		for _, c := range e.Costs[i] {
			total += c
		}
	}
	return total
}

// TotalRuns returns the number of (user, model) pairs — the denominator of
// the "% of runs" axis.
func (e *MatrixEnv) TotalRuns() int {
	var total int
	for i := range e.Quality {
		total += len(e.Quality[i])
	}
	return total
}

// Validate checks the matrices are rectangular-per-user with positive costs.
func (e *MatrixEnv) Validate() error {
	if len(e.Quality) != len(e.Costs) {
		return fmt.Errorf("core: %d quality rows vs %d cost rows", len(e.Quality), len(e.Costs))
	}
	for i := range e.Quality {
		if len(e.Quality[i]) != len(e.Costs[i]) {
			return fmt.Errorf("core: user %d has %d qualities vs %d costs", i, len(e.Quality[i]), len(e.Costs[i]))
		}
		if len(e.Quality[i]) == 0 {
			return fmt.Errorf("core: user %d has no models", i)
		}
		for j, c := range e.Costs[i] {
			if c <= 0 {
				return fmt.Errorf("core: cost[%d][%d] = %g not positive", i, j, c)
			}
		}
	}
	return nil
}
