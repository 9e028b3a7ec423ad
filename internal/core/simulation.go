package core

import (
	"fmt"
	"math"

	"repro/internal/bandit"
	"repro/internal/gp"
	"repro/internal/linalg"
)

// TracePoint records the simulation state after one scheduling round.
type TracePoint struct {
	Step    int     // 1-based round counter
	User    int     // tenant served this round
	Arm     int     // model trained this round
	Reward  float64 // observed accuracy
	Cost    float64 // cost paid this round (Ct)
	CumCost float64 // cumulative cost after this round
	AvgLoss float64 // mean accuracy loss over all tenants (Appendix A eq. 3)
	MaxLoss float64 // worst per-tenant accuracy loss this round
}

// Simulation drives a multi-tenant model-selection run: at every round the
// user picker chooses a tenant, the model picker chooses that tenant's next
// model, the environment returns the observed accuracy, and every tracker is
// updated.
type Simulation struct {
	Tenants []*Tenant

	env         Env
	userPicker  UserPicker
	modelPicker ModelPicker

	// best[i] is env.BestQuality(i), read once: the ground truth is fixed
	// for a run, and every round consults it for every tenant.
	best []float64

	steps   int
	cumCost float64
	trace   []TracePoint

	// cumRegret is the multi-tenant, cost-aware cumulative regret of §4.1:
	// RT = Σ_t Ct·(Σ_i r_{i,ti}), where unserved tenants keep paying the
	// regret of the model from their last served round (0 reward if never
	// served).
	cumRegret float64
}

// SimConfig assembles a Simulation.
type SimConfig struct {
	Env         Env
	UserPicker  UserPicker
	ModelPicker ModelPicker

	// Kernel builds each tenant's GP prior from the model feature vectors;
	// required.
	Kernel gp.Kernel
	// Features holds the per-model kernel features (quality vectors over
	// training users, Appendix A). Features[arm] must exist for every arm
	// of every tenant.
	Features [][]float64
	// NoiseVar is the GP observation noise variance σ² (default 1e-4).
	NoiseVar float64
	// CostAware enables the §3.2 cost-aware selection rule inside every
	// tenant's bandit.
	CostAware bool
	// Delta is the β-schedule failure probability (default 0.1).
	Delta float64
	// PriorMean is the prior mean of the reward surface, forwarded to every
	// tenant's bandit (bandit.Config.Mean0). The GP prior is zero-mean
	// (Appendix A); centering observations around the across-users mean
	// quality keeps that assumption honest.
	PriorMean float64
	// ArmPriorMeans optionally adds a per-arm prior mean on top of
	// PriorMean (bandit.Config.ArmMeans) — the warm-start extension where
	// each model's historical average quality seeds its prior.
	ArmPriorMeans []float64
}

// NewSimulation builds the per-tenant bandits and the simulation state.
func NewSimulation(cfg SimConfig) (*Simulation, error) {
	if cfg.Env == nil || cfg.UserPicker == nil || cfg.ModelPicker == nil {
		return nil, fmt.Errorf("core: Env, UserPicker and ModelPicker are required")
	}
	if cfg.Kernel == nil {
		return nil, fmt.Errorf("core: Kernel is required")
	}
	n := cfg.Env.NumUsers()
	if n == 0 {
		return nil, fmt.Errorf("core: environment has no users")
	}
	noise := cfg.NoiseVar
	if noise == 0 {
		noise = 1e-4
	}
	// β ranges over the union of all arms (Theorems 2–3 use n·K*).
	kStar := 0
	for i := 0; i < n; i++ {
		if k := cfg.Env.NumModels(i); k > kStar {
			kStar = k
		}
	}
	s := &Simulation{env: cfg.Env, userPicker: cfg.UserPicker, modelPicker: cfg.ModelPicker}
	// Tenants with the same arm count share the same features, hence the
	// same prior: evaluate the K² kernel entries once per distinct K. gp.New
	// adopts the matrix it is given, so those tenants also share its storage
	// (nothing below writes it).
	priors := make(map[int]*linalg.Matrix)
	for i := 0; i < n; i++ {
		k := cfg.Env.NumModels(i)
		if k == 0 {
			return nil, fmt.Errorf("core: user %d has no candidate models", i)
		}
		if len(cfg.Features) < k {
			return nil, fmt.Errorf("core: %d feature vectors for %d arms of user %d", len(cfg.Features), k, i)
		}
		costs := make([]float64, k)
		for arm := 0; arm < k; arm++ {
			costs[arm] = cfg.Env.Cost(i, arm)
		}
		prior := priors[k]
		if prior == nil {
			prior = gp.CovarianceMatrix(cfg.Kernel, cfg.Features[:k])
			priors[k] = prior
		}
		process := gp.New(prior, noise)
		var armMeans []float64
		if len(cfg.ArmPriorMeans) > 0 {
			if len(cfg.ArmPriorMeans) < k {
				return nil, fmt.Errorf("core: %d arm prior means for %d arms of user %d", len(cfg.ArmPriorMeans), k, i)
			}
			armMeans = cfg.ArmPriorMeans[:k]
		}
		b := bandit.New(process, bandit.Config{
			Costs:     costs,
			CostAware: cfg.CostAware,
			Delta:     cfg.Delta,
			BetaArms:  n * kStar,
			Mean0:     cfg.PriorMean,
			ArmMeans:  armMeans,
		})
		s.Tenants = append(s.Tenants, NewTenant(i, fmt.Sprintf("user-%d", i), b))
		s.best = append(s.best, cfg.Env.BestQuality(i))
	}
	return s, nil
}

// ActiveTenants returns the indices of tenants that still have untried
// models.
func (s *Simulation) ActiveTenants() []int { return Active(s.Tenants) }

// Done reports whether every tenant has trained every model.
func (s *Simulation) Done() bool { return len(s.ActiveTenants()) == 0 }

// Steps returns the number of completed rounds.
func (s *Simulation) Steps() int { return s.steps }

// CumulativeCost returns the total execution cost paid so far.
func (s *Simulation) CumulativeCost() float64 { return s.cumCost }

// CumulativeRegret returns the multi-tenant cost-aware regret RT of §4.1.
func (s *Simulation) CumulativeRegret() float64 { return s.cumRegret }

// Trace returns the recorded per-round trace.
func (s *Simulation) Trace() []TracePoint { return s.trace }

// AvgLoss returns the current mean accuracy loss over tenants
// (Appendix A eq. 3).
func (s *Simulation) AvgLoss() float64 {
	var sum float64
	for i, t := range s.Tenants {
		sum += s.best[i] - t.BestObserved()
	}
	return sum / float64(len(s.Tenants))
}

// MaxLoss returns the largest per-tenant accuracy loss.
func (s *Simulation) MaxLoss() float64 {
	worst := math.Inf(-1)
	for i, t := range s.Tenants {
		if l := s.best[i] - t.BestObserved(); l > worst {
			worst = l
		}
	}
	return worst
}

// Step executes one scheduling round. It returns false when no progress is
// possible (all tenants exhausted). It returns an error if a picker
// misbehaves (selects an exhausted tenant or an already-played arm).
func (s *Simulation) Step() (bool, error) {
	user := s.userPicker.Pick(s.Tenants)
	if user < 0 {
		if !s.Done() {
			return false, fmt.Errorf("core: %s returned no user while %d tenants are active",
				s.userPicker.Name(), len(s.ActiveTenants()))
		}
		return false, nil
	}
	if user >= len(s.Tenants) {
		return false, fmt.Errorf("core: %s picked invalid user %d", s.userPicker.Name(), user)
	}
	tenant := s.Tenants[user]
	if tenant.Bandit.Exhausted() {
		return false, fmt.Errorf("core: %s picked exhausted user %d", s.userPicker.Name(), user)
	}
	arm, ucb := s.modelPicker.Pick(tenant)
	if arm < 0 || tenant.Bandit.Tried(arm) {
		return false, fmt.Errorf("core: %s picked invalid arm %d for user %d", s.modelPicker.Name(), arm, user)
	}

	reward := s.env.Reward(user, arm)
	cost := s.env.Cost(user, arm)
	if err := tenant.Bandit.Observe(arm, reward); err != nil {
		return false, fmt.Errorf("core: observing arm %d for user %d: %w", arm, user, err)
	}
	tenant.RecordObservation(ucb, reward)

	s.steps++
	s.cumCost += cost

	// Multi-tenant regret: every tenant pays Ct times the regret of the
	// model from its last served round.
	var regretSum float64
	for i, t := range s.Tenants {
		regretSum += s.best[i] - t.LastReward()
	}
	s.cumRegret += float64(cost * regretSum)

	s.trace = append(s.trace, TracePoint{
		Step:    s.steps,
		User:    user,
		Arm:     arm,
		Reward:  reward,
		Cost:    cost,
		CumCost: s.cumCost,
		AvgLoss: s.AvgLoss(),
		MaxLoss: s.MaxLoss(),
	})
	return true, nil
}

// RunSteps executes up to maxSteps rounds (or until exhaustion when
// maxSteps ≤ 0) and returns the number of rounds executed.
func (s *Simulation) RunSteps(maxSteps int) (int, error) {
	ran := 0
	for maxSteps <= 0 || ran < maxSteps {
		ok, err := s.Step()
		if err != nil {
			return ran, err
		}
		if !ok {
			break
		}
		ran++
	}
	return ran, nil
}

// RunBudget executes rounds until the cumulative cost would stay under
// budget no longer — it stops before starting a round when cumCost ≥ budget
// — or until exhaustion. It returns the number of rounds executed.
func (s *Simulation) RunBudget(budget float64) (int, error) {
	ran := 0
	for s.cumCost < budget {
		ok, err := s.Step()
		if err != nil {
			return ran, err
		}
		if !ok {
			break
		}
		ran++
	}
	return ran, nil
}
