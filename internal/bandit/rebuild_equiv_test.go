package bandit

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/gp"
)

// The bandit's pick rides the GP's incrementally maintained posterior. Over
// a 179CLASSIFIER-sized run — 179 arms, 90 observations, the shape whose
// per-miss solve the incremental block replaced — every SelectArm and every
// UCB surface must equal, bit for bit, those of a bandit whose posterior is
// rebuilt from scratch (CloneShadow: factor refactorized from the history,
// block solved in one pass from row 0).
func TestSelectArmMatchesRebuiltPosterior(t *testing.T) {
	const k, obs = 179, 90
	for _, costAware := range []bool{false, true} {
		rng := rand.New(rand.NewSource(11))
		features := make([][]float64, k)
		costs := make([]float64, k)
		for j := range features {
			f := make([]float64, 16)
			for i := range f {
				f[i] = rng.Float64()
			}
			features[j] = f
			costs[j] = 0.5 + 4*rng.Float64()
		}
		process := gp.NewFromFeatures(gp.RBF{Variance: 0.05, LengthScale: 1}, features, 1e-4)
		b := New(process, Config{Costs: costs, CostAware: costAware, Mean0: 0.6})
		for step := 0; step < obs; step++ {
			rebuilt := b.CloneShadow(nil)
			arm, ucb := b.SelectArm()
			wantArm, wantUCB := rebuilt.SelectArm()
			if arm != wantArm || math.Float64bits(ucb) != math.Float64bits(wantUCB) {
				t.Fatalf("costAware=%v step %d: picked (%d, %v), rebuilt posterior picks (%d, %v)",
					costAware, step, arm, ucb, wantArm, wantUCB)
			}
			surface, want := b.UCBSurface(), rebuilt.UCBSurface()
			for j := range want {
				if math.Float64bits(surface[j]) != math.Float64bits(want[j]) {
					t.Fatalf("costAware=%v step %d: UCB(%d) = %v, rebuilt posterior says %v",
						costAware, step, j, surface[j], want[j])
				}
			}
			if err := b.Observe(arm, 0.5+0.4*rng.Float64()); err != nil {
				t.Fatal(err)
			}
		}
	}
}
