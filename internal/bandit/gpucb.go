// Package bandit implements the single-tenant model-selection bandit of the
// paper's §3: the classic cost-oblivious GP-UCB (Algorithm 1) and the
// cost-aware twist of §3.2 that replaces √βt·σ(k) with √(βt/ck)·σ(k).
//
// A GPUCB instance is the per-tenant building block that the multi-tenant
// schedulers in internal/core compose (Algorithm 2 runs one GP-UCB step for
// the chosen tenant at every round).
package bandit

import (
	"fmt"
	"math"

	"repro/internal/gp"
)

// BetaSchedule computes the exploration coefficient
//
//	βt = 2·c*·log(π²·K·t²/(6δ))     (Theorem 1; Theorems 2–3 use K = n·K*)
//
// where c* is the maximum arm cost (1 for the cost-oblivious setting),
// K counts the union of arms the union bound ranges over, and δ is the
// failure probability.
func BetaSchedule(cStar float64, numArms, t int, delta float64) float64 {
	if t < 1 {
		t = 1
	}
	arg := math.Pi * math.Pi * float64(numArms) * float64(t) * float64(t) / (6 * delta)
	return 2 * cStar * math.Log(arg)
}

// Config parameterizes a GPUCB bandit.
type Config struct {
	// Costs holds the execution cost ck of each arm; required, all > 0.
	Costs []float64
	// CostAware selects the §3.2 rule argmax µ(k)+√(βt/ck)·σ(k); when
	// false, the classic Algorithm 1 rule is used and costs only matter
	// for accounting.
	CostAware bool
	// Delta is the failure probability δ ∈ (0,1) of the β schedule
	// (default 0.1).
	Delta float64
	// BetaArms overrides the arm count K used inside the β schedule. The
	// multi-tenant theorems use n·K* across all tenants; zero means
	// len(Costs).
	BetaArms int
	// CStar overrides c* in the β schedule; zero means max(Costs) when
	// CostAware, else 1.
	CStar float64
	// Mean0 is the prior mean of the reward surface. The underlying GP is
	// zero-mean (Appendix A), so observations are centered by Mean0 before
	// conditioning and posterior means are shifted back by Mean0 when read.
	Mean0 float64
	// ArmMeans optionally adds a per-arm prior mean on top of Mean0 — the
	// warm-start extension where a model's average quality on historical
	// users seeds its prior (see internal/experiments' warm-start
	// ablation). Must be empty or length K.
	ArmMeans []float64
}

// GPUCB is a single-tenant (cost-aware) GP-UCB bandit over K arms.
// Each arm is played at most once: model selection trains a given model a
// single time per task (§5.3's budget is a fraction of all available runs).
type GPUCB struct {
	gp     *gp.GP
	cfg    Config
	t      int // local step counter, 1-based at first selection
	tried  []bool
	nTried int

	bestArm int
	bestY   float64
	haveObs bool

	cumCost float64

	// SelectArm cache: the UCB landscape only changes when a new
	// observation arrives (β depends on the local step count, the posterior
	// on the history), so between observations the choice is constant. The
	// multi-tenant GREEDY picker queries MaxUCB for every tenant at every
	// round; this cache makes those queries amortized O(1). Alongside the
	// winning (arm, value) pair the full per-arm UCB surface is kept
	// (UCBSurface) for diagnostics and the shadow-equivalence tests; stats
	// counts hits, misses and invalidations for the scrape's
	// easeml_bandit_cache_events_total family.
	cacheValid bool
	cachedArm  int
	cachedUCB  float64
	cachedUCBs []float64
	stats      SelectionCacheStats
}

// SelectionCacheStats counts SelectArm-cache traffic: Hits are selections
// answered from the cached UCB surface, Misses are full posterior passes,
// and Invalidations are observations/retirements that dirtied the cache.
type SelectionCacheStats struct {
	Hits          uint64 `json:"hits"`
	Misses        uint64 `json:"misses"`
	Invalidations uint64 `json:"invalidations"`
}

// Stats bundles the bandit's selection-cache counters with the underlying
// process's posterior-cache counters.
type Stats struct {
	Select    SelectionCacheStats `json:"select"`
	Posterior gp.CacheStats       `json:"posterior"`
}

// CacheStats reports the bandit's cache counters (selection layer plus the
// GP posterior cache beneath it).
func (b *GPUCB) CacheStats() Stats {
	return Stats{Select: b.stats, Posterior: b.gp.PosteriorCacheStats()}
}

// UCBSurface returns a copy of the cached per-arm UCB scores (NaN for
// tried/retired arms, nil when every arm is exhausted), recomputing the
// surface if it is stale. It is a diagnostics/testing read — the
// cross-job selection index ranks jobs through Tenant.Gap/MaxUCB, which
// hit the same cache — exposed so equivalence tests can compare whole
// surfaces instead of single argmax winners.
func (b *GPUCB) UCBSurface() []float64 {
	return append([]float64(nil), b.UCBView()...)
}

// UCBView is UCBSurface without the copy: the bandit's own cached
// surface, read-only and valid until the bandit's next mutation (Observe,
// Retire, or anything else that moves its posterior or step). The pick
// path reads it in place under the job's lock.
func (b *GPUCB) UCBView() []float64 {
	if arm, _ := b.SelectArm(); arm < 0 {
		return nil
	}
	return b.cachedUCBs
}

// New creates a GPUCB over the arms of the given posterior process.
// It panics on invalid configuration.
func New(process *gp.GP, cfg Config) *GPUCB {
	k := process.NumArms()
	if len(cfg.Costs) != k {
		panic(fmt.Sprintf("bandit: %d costs for %d arms", len(cfg.Costs), k))
	}
	for i, c := range cfg.Costs {
		if c <= 0 {
			panic(fmt.Sprintf("bandit: arm %d has non-positive cost %g", i, c))
		}
	}
	if cfg.Delta == 0 {
		cfg.Delta = 0.1
	}
	if cfg.Delta <= 0 || cfg.Delta >= 1 {
		panic(fmt.Sprintf("bandit: delta %g outside (0,1)", cfg.Delta))
	}
	if cfg.BetaArms == 0 {
		cfg.BetaArms = k
	}
	if cfg.CStar == 0 {
		if cfg.CostAware {
			cfg.CStar = maxFloat(cfg.Costs)
		} else {
			cfg.CStar = 1
		}
	}
	if len(cfg.ArmMeans) != 0 && len(cfg.ArmMeans) != k {
		panic(fmt.Sprintf("bandit: %d arm means for %d arms", len(cfg.ArmMeans), k))
	}
	return &GPUCB{gp: process, cfg: cfg, bestArm: -1}
}

// NumArms returns K.
func (b *GPUCB) NumArms() int { return b.gp.NumArms() }

// Process returns the bandit's posterior process.
func (b *GPUCB) Process() *gp.GP { return b.gp }

// NumTried returns the number of arms already played.
func (b *GPUCB) NumTried() int { return b.nTried }

// Exhausted reports whether every arm has been played.
func (b *GPUCB) Exhausted() bool { return b.nTried == b.NumArms() }

// Tried reports whether arm k has been played.
func (b *GPUCB) Tried(k int) bool { return b.tried != nil && b.tried[k] }

// CumulativeCost returns the total cost paid so far.
func (b *GPUCB) CumulativeCost() float64 { return b.cumCost }

// Beta returns βt for the *next* selection (local step t+1).
func (b *GPUCB) Beta() float64 {
	return BetaSchedule(b.cfg.CStar, b.cfg.BetaArms, b.t+1, b.cfg.Delta)
}

// shift returns the total prior-mean shift of arm k.
func (b *GPUCB) shift(k int) float64 {
	s := b.cfg.Mean0
	if len(b.cfg.ArmMeans) > 0 {
		s += b.cfg.ArmMeans[k]
	}
	return s
}

// UCB returns the upper confidence bound of arm k under the next step's β:
// µ(k) + √(β/ck)·σ(k) when cost-aware, µ(k) + √β·σ(k) otherwise.
func (b *GPUCB) UCB(k int) float64 {
	beta := b.Beta()
	if b.cfg.CostAware {
		beta /= b.cfg.Costs[k]
	}
	return b.Mean(k) + float64(math.Sqrt(beta)*b.gp.Std(k))
}

// SelectArm returns the untried arm maximizing the (cost-aware) UCB
// criterion together with its UCB value. It returns arm == -1 when every arm
// has been played.
func (b *GPUCB) SelectArm() (arm int, ucb float64) {
	if b.Exhausted() {
		return -1, math.Inf(-1)
	}
	if b.cacheValid {
		b.stats.Hits++
		return b.cachedArm, b.cachedUCB
	}
	b.stats.Misses++
	beta := b.Beta()
	// The cached surface, read in place and used at once: σ is only needed
	// for the arms still open, so it is rooted here, not for all K.
	mu, rawVar := b.gp.Surface()
	if cap(b.cachedUCBs) < b.NumArms() {
		b.cachedUCBs = make([]float64, b.NumArms())
	}
	b.cachedUCBs = b.cachedUCBs[:b.NumArms()]
	arm = -1
	ucb = math.Inf(-1)
	for k := 0; k < b.NumArms(); k++ {
		if b.Tried(k) {
			b.cachedUCBs[k] = math.NaN()
			continue
		}
		bk := beta
		if b.cfg.CostAware {
			bk /= b.cfg.Costs[k]
		}
		v := mu[k] + b.shift(k) + float64(math.Sqrt(bk)*gp.StdOfRaw(rawVar[k]))
		b.cachedUCBs[k] = v
		if v > ucb {
			ucb = v
			arm = k
		}
	}
	b.cacheValid = true
	b.cachedArm = arm
	b.cachedUCB = ucb
	return arm, ucb
}

// MaxUCB returns the largest UCB value over the untried arms, or -Inf when
// exhausted. This is the quantity the GREEDY user-picking rule compares
// against the best observed accuracy (§4.3 "maximum gap between the largest
// upper confidence bound and the best accuracy so far").
func (b *GPUCB) MaxUCB() float64 {
	_, ucb := b.SelectArm()
	return ucb
}

// Observe records reward y for arm k, advancing the local clock and paying
// the arm's cost. It panics if the arm was already played (a caller
// contract violation) but returns an error when the posterior update fails
// on an ill-conditioned covariance; the bandit's state is then unchanged —
// the arm stays selectable and the clock does not advance — so a caller can
// retire the tenant without a poisoned posterior.
func (b *GPUCB) Observe(k int, y float64) error {
	if b.Tried(k) {
		panic(fmt.Sprintf("bandit: arm %d played twice", k))
	}
	if err := b.gp.Observe(k, y-b.shift(k)); err != nil {
		return fmt.Errorf("bandit: arm %d: %w", k, err)
	}
	if b.tried == nil {
		b.tried = make([]bool, b.NumArms())
	}
	b.tried[k] = true
	b.nTried++
	b.t++
	b.invalidateCache()
	b.cumCost += b.cfg.Costs[k]
	if !b.haveObs || y > b.bestY {
		b.bestY = y
		b.bestArm = k
		b.haveObs = true
	}
	return nil
}

// Retire permanently removes arm k from selection without recording an
// observation — for candidates that repeatedly fail to train. The
// posterior, the local clock and the best-so-far record are untouched; the
// arm simply stops being selectable and counts toward exhaustion. Retiring
// a played or already-retired arm is a no-op.
func (b *GPUCB) Retire(k int) {
	if b.Tried(k) {
		return
	}
	if b.tried == nil {
		b.tried = make([]bool, b.NumArms())
	}
	b.tried[k] = true
	b.nTried++
	b.invalidateCache()
}

// invalidateCache dirties the SelectArm cache after an observation or
// retirement.
func (b *GPUCB) invalidateCache() {
	if b.cacheValid {
		b.cacheValid = false
		b.stats.Invalidations++
	}
}

// Best returns the best arm observed so far and its reward; ok is false
// before the first observation. This is the model ease.ml serves for the
// infer operator ("the best model so far").
func (b *GPUCB) Best() (arm int, y float64, ok bool) {
	return b.bestArm, b.bestY, b.haveObs
}

// Posterior exposes the posterior (means and standard deviations per arm, in
// raw reward space) for diagnostics and user-picking rules.
func (b *GPUCB) Posterior() (mu, sigma []float64) {
	mu, sigma = b.gp.Posterior()
	for i := range mu {
		mu[i] += b.shift(i)
	}
	return mu, sigma
}

// Mean returns the posterior mean of arm k (in raw reward space, i.e.
// including the prior-mean shifts).
func (b *GPUCB) Mean(k int) float64 { return b.gp.Mean(k) + b.shift(k) }

func maxFloat(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}
