package bandit

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/gp"
)

func TestStdNormHelpers(t *testing.T) {
	if got := stdNormCDF(0); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("Φ(0) = %g", got)
	}
	if got := stdNormCDF(1.96); math.Abs(got-0.975) > 1e-3 {
		t.Errorf("Φ(1.96) = %g", got)
	}
	if got := stdNormPDF(0); math.Abs(got-1/math.Sqrt(2*math.Pi)) > 1e-12 {
		t.Errorf("φ(0) = %g", got)
	}
	// Symmetry.
	if stdNormPDF(1.3) != stdNormPDF(-1.3) {
		t.Error("φ not symmetric")
	}
	if math.Abs(stdNormCDF(0.7)+stdNormCDF(-0.7)-1) > 1e-12 {
		t.Error("Φ(z)+Φ(−z) ≠ 1")
	}
}

func TestAcquisitionNames(t *testing.T) {
	cases := map[string]Acquisition{
		"gp-ucb":      UCBAcquisition{},
		"gp-ucb/cost": UCBAcquisition{CostAware: true},
		"gp-ei":       EIAcquisition{},
		"gp-ei/cost":  EIAcquisition{CostAware: true},
		"gp-pi":       PIAcquisition{},
		"gp-pi/cost":  PIAcquisition{CostAware: true},
	}
	for want, a := range cases {
		if a.Name() != want {
			t.Errorf("Name = %q, want %q", a.Name(), want)
		}
	}
}

func TestEIKnownValues(t *testing.T) {
	a := EIAcquisition{Xi: 1e-12}
	// σ=0: EI is the positive part of µ−best.
	if got := a.Score(0.8, 0, 0.5, 1, 1); math.Abs(got-0.3) > 1e-9 {
		t.Errorf("deterministic EI = %g, want 0.3", got)
	}
	if got := a.Score(0.3, 0, 0.5, 1, 1); got != 0 {
		t.Errorf("deterministic EI below best = %g, want 0", got)
	}
	// µ=best: EI = σ·φ(0).
	want := 0.2 * stdNormPDF(0)
	if got := a.Score(0.5, 0.2, 0.5, 1, 1); math.Abs(got-want) > 1e-6 {
		t.Errorf("at-incumbent EI = %g, want %g", got, want)
	}
	// Cost-aware divides by cost.
	ca := EIAcquisition{Xi: 1e-12, CostAware: true}
	if got := ca.Score(0.8, 0, 0.5, 2, 1); math.Abs(got-0.15) > 1e-9 {
		t.Errorf("EI/cost = %g, want 0.15", got)
	}
}

func TestPIKnownValues(t *testing.T) {
	a := PIAcquisition{Xi: 1e-12}
	if got := a.Score(0.9, 0, 0.5, 1, 1); got != 1 {
		t.Errorf("certain improvement PI = %g, want 1", got)
	}
	if got := a.Score(0.1, 0, 0.5, 1, 1); got != 0 {
		t.Errorf("certain non-improvement PI = %g, want 0", got)
	}
	// µ = best + ξ ⇒ z = 0 ⇒ PI = ½.
	b := PIAcquisition{Xi: 0.1}
	if got := b.Score(0.6, 0.3, 0.5, 1, 1); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("PI at margin = %g, want 0.5", got)
	}
}

func TestEIPIIncreaseWithSigma(t *testing.T) {
	// For µ below the incumbent, more uncertainty means more hope.
	for _, acq := range []Acquisition{EIAcquisition{}, PIAcquisition{}} {
		lo := acq.Score(0.4, 0.05, 0.5, 1, 1)
		hi := acq.Score(0.4, 0.3, 0.5, 1, 1)
		if hi <= lo {
			t.Errorf("%s: score did not grow with σ (%g vs %g)", acq.Name(), lo, hi)
		}
	}
}

func TestSelectArmByMatchesUCBDefault(t *testing.T) {
	process := gp.NewFromFeatures(gp.RBF{Variance: 0.2, LengthScale: 0.4}, lineFeatures(6), 0.01)
	b := New(process, Config{Costs: []float64{1, 2, 1, 3, 1, 2}, CostAware: true, Mean0: 0.5})
	b.Observe(2, 0.7)
	armDefault, ucbDefault := b.SelectArm()
	armBy, scoreBy := b.SelectArmBy(UCBAcquisition{CostAware: true})
	if armDefault != armBy || math.Abs(ucbDefault-scoreBy) > 1e-9 {
		t.Errorf("SelectArmBy(UCB) = (%d,%g), SelectArm = (%d,%g)", armBy, scoreBy, armDefault, ucbDefault)
	}
}

func TestSelectArmByLifecycle(t *testing.T) {
	for _, acq := range []Acquisition{
		EIAcquisition{}, PIAcquisition{}, EIAcquisition{CostAware: true},
	} {
		process := gp.NewFromFeatures(gp.RBF{Variance: 0.1, LengthScale: 0.3}, lineFeatures(5), 0.01)
		b := New(process, Config{Costs: unitCosts(5), Mean0: 0.5})
		rng := rand.New(rand.NewSource(3))
		for !b.Exhausted() {
			arm, _ := b.SelectArmBy(acq)
			if arm < 0 || b.Tried(arm) {
				t.Fatalf("%s: invalid arm %d", acq.Name(), arm)
			}
			b.Observe(arm, rng.Float64())
		}
		if arm, s := b.SelectArmBy(acq); arm != -1 || !math.IsInf(s, -1) {
			t.Errorf("%s: exhausted returned (%d,%g)", acq.Name(), arm, s)
		}
	}
}

// EI and PI with a well-informed prior should still find the optimum of a
// smooth landscape quickly.
func TestEIPIFindOptimum(t *testing.T) {
	const k = 25
	features := lineFeatures(k)
	truth := make([]float64, k)
	bestTruth := 0.0
	for i := range truth {
		x := features[i][0]
		truth[i] = 0.5 + 0.35*math.Sin(4*x)
		if truth[i] > bestTruth {
			bestTruth = truth[i]
		}
	}
	for _, acq := range []Acquisition{EIAcquisition{}, PIAcquisition{}} {
		process := gp.NewFromFeatures(gp.RBF{Variance: 0.1, LengthScale: 0.2}, features, 1e-4)
		b := New(process, Config{Costs: unitCosts(k), Mean0: 0.5})
		for step := 0; step < 12; step++ {
			arm, _ := b.SelectArmBy(acq)
			b.Observe(arm, truth[arm])
		}
		_, y, _ := b.Best()
		if bestTruth-y > 0.08 {
			t.Errorf("%s: best found %.3f vs optimum %.3f after 12/25 plays", acq.Name(), y, bestTruth)
		}
	}
}

// Property: every acquisition plays each arm exactly once over a full sweep
// and ends with the true optimum found.
func TestQuickAcquisitionsFullSweep(t *testing.T) {
	acqs := []Acquisition{
		UCBAcquisition{}, UCBAcquisition{CostAware: true},
		EIAcquisition{}, EIAcquisition{CostAware: true},
		PIAcquisition{}, PIAcquisition{CostAware: true},
	}
	f := func(seed int64, aRaw, kRaw uint8) bool {
		acq := acqs[int(aRaw)%len(acqs)]
		k := int(kRaw%6) + 2
		rng := rand.New(rand.NewSource(seed))
		truth := make([]float64, k)
		costs := make([]float64, k)
		bestTruth := -1.0
		for i := range truth {
			truth[i] = rng.Float64()
			costs[i] = 0.2 + rng.Float64()
			if truth[i] > bestTruth {
				bestTruth = truth[i]
			}
		}
		process := gp.NewFromFeatures(gp.RBF{Variance: 0.1, LengthScale: 0.3}, lineFeatures(k), 0.01)
		b := New(process, Config{Costs: costs, Mean0: 0.5})
		for !b.Exhausted() {
			arm, _ := b.SelectArmBy(acq)
			if arm < 0 || b.Tried(arm) {
				return false
			}
			b.Observe(arm, truth[arm])
		}
		_, y, ok := b.Best()
		return ok && y == bestTruth
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
