package core

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/bandit"
	"repro/internal/gp"
)

// referenceOracle serves greedy queries straight from GreedyDecision — the
// trivial (uncached) SelectionOracle every optimized implementation must
// agree with.
type referenceOracle struct{}

func (referenceOracle) GreedyChoice(tenants []*Tenant) int {
	choice, _ := GreedyDecision(tenants, func(i int) float64 { return tenants[i].Gap() })
	return choice
}

func (referenceOracle) GreedyCandidates(tenants []*Tenant) []int {
	_, candidates := GreedyDecision(tenants, func(i int) float64 { return tenants[i].Gap() })
	out := append([]int(nil), candidates...)
	sort.Ints(out)
	return out
}

// scanOracle is the linear class partition with referenceOracle behind every
// class: it drives ClassWeightedPicker's ClassOracle path — per-class inner
// PickWithOracle over class-local sub-slices — from the canonical linear
// implementations.
type scanOracle struct {
	referenceOracle
	classScan
}

func (s *scanOracle) ClassMembers(class string) ([]*Tenant, []int, SelectionOracle) {
	members, index, _ := s.classScan.ClassMembers(class)
	return members, index, referenceOracle{}
}

func oracleTenants(t *testing.T, rng *rand.Rand, n int) []*Tenant {
	t.Helper()
	tenants := make([]*Tenant, n)
	classes := []string{"guaranteed", "standard", "best-effort"}
	for i := range tenants {
		k := 4 + rng.Intn(6)
		features := make([][]float64, k)
		costs := make([]float64, k)
		for j := range features {
			features[j] = []float64{rng.Float64()}
			costs[j] = 1
		}
		b := bandit.New(gp.NewFromFeatures(gp.RBF{Variance: 0.05, LengthScale: 0.5}, features, 1e-4),
			bandit.Config{Costs: costs})
		tenants[i] = NewTenant(i, "u", b)
		tenants[i].Class = classes[i%len(classes)]
		tenants[i].Weight = float64(3 - i%len(classes))
	}
	return tenants
}

// Oracle-backed picking must be step-for-step identical to the linear
// pickers across full randomized runs, for greedy, hybrid and the
// class-weighted wrapper (freeze detection and the class partition included).
func TestPickWithOracleMatchesPick(t *testing.T) {
	builders := map[string]func() (UserPicker, OraclePicker){
		"greedy": func() (UserPicker, OraclePicker) { return &GreedyPicker{}, &GreedyPicker{} },
		"hybrid": func() (UserPicker, OraclePicker) { return NewHybridPicker(), NewHybridPicker() },
		"class-weighted(hybrid)": func() (UserPicker, OraclePicker) {
			return NewClassWeightedPicker(nil), NewClassWeightedPicker(nil)
		},
	}
	for name, build := range builders {
		for seed := int64(0); seed < 8; seed++ {
			rngA := rand.New(rand.NewSource(seed))
			rngB := rand.New(rand.NewSource(seed))
			tenantsA := oracleTenants(t, rngA, 6)
			tenantsB := oracleTenants(t, rngB, 6)
			linear, oracle := build()
			for step := 0; ; step++ {
				a := linear.Pick(tenantsA)
				var o SelectionOracle = referenceOracle{}
				if name == "class-weighted(hybrid)" {
					scan := &scanOracle{}
					scan.partition(tenantsB)
					o = scan
				}
				b := oracle.PickWithOracle(tenantsB, o)
				if a != b {
					t.Fatalf("%s seed %d step %d: linear picked %d, oracle picked %d", name, seed, step, a, b)
				}
				if a < 0 {
					break
				}
				arm, ucb := tenantsA[a].Bandit.SelectArm()
				y := rngA.Float64()
				_ = rngB.Float64() // keep the two streams aligned
				if err := tenantsA[a].Bandit.Observe(arm, y); err != nil {
					t.Fatal(err)
				}
				tenantsA[a].RecordObservation(ucb, y)
				armB, ucbB := tenantsB[b].Bandit.SelectArm()
				if armB != arm || ucbB != ucb {
					t.Fatalf("%s seed %d step %d: arm divergence (%d,%v) vs (%d,%v)", name, seed, step, arm, ucb, armB, ucbB)
				}
				if err := tenantsB[b].Bandit.Observe(armB, y); err != nil {
					t.Fatal(err)
				}
				tenantsB[b].RecordObservation(ucbB, y)
			}
		}
	}
}
