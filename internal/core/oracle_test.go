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

// classOraclePicker runs ClassWeightedPicker.PickClasses in the
// OraclePicker shape the equivalence loop below drives every picker in.
type classOraclePicker struct{ *ClassWeightedPicker }

func (p classOraclePicker) PickWithOracle(_ []*Tenant, o SelectionOracle) int {
	return p.PickClasses(o.(ClassOracle))
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
			return NewClassWeightedPicker(nil), classOraclePicker{NewClassWeightedPicker(nil)}
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

// step plays the chosen tenant's next arm with reward y.
func step(t *testing.T, ten *Tenant, y float64) {
	t.Helper()
	arm, ucb := ten.Bandit.SelectArm()
	if err := ten.Bandit.Observe(arm, y); err != nil {
		t.Fatal(err)
	}
	ten.RecordObservation(ucb, y)
}

// A view tenant answers every picker query from published scalars: the
// stock pickers make the same decisions over views as over the tenants the
// views copy, for full runs (freeze detection and the class scan included).
func TestPickersDecideTheSameOverViews(t *testing.T) {
	builders := map[string]func() UserPicker{
		"fcfs":           func() UserPicker { return FCFSPicker{} },
		"round-robin":    func() UserPicker { return &RoundRobinPicker{} },
		"greedy":         func() UserPicker { return &GreedyPicker{} },
		"hybrid":         func() UserPicker { return NewHybridPicker() },
		"class-weighted": func() UserPicker { return NewClassWeightedPicker(nil) },
	}
	for name, build := range builders {
		rng := rand.New(rand.NewSource(11))
		tenants := oracleTenants(t, rng, 7)
		views := make([]*Tenant, len(tenants))
		for i, ten := range tenants {
			views[i] = NewTenantView(i, ten.Name, ten.Scalars())
			views[i].Class, views[i].Weight = ten.Class, ten.Weight
		}
		onTenants, onViews := build(), build()
		for round := 0; ; round++ {
			a, b := onTenants.Pick(tenants), onViews.Pick(views)
			if a != b {
				t.Fatalf("%s round %d: picked %d over tenants, %d over views", name, round, a, b)
			}
			if a < 0 {
				break
			}
			if round%5 == 4 { // a lease that outlives the round
				tenants[a].SetLeased(tenants[a].Leased() + 1)
				views[a].SetLeased(tenants[a].Leased())
				if tenants[a].Active() != views[a].Active() {
					t.Fatalf("%s round %d: Active disagrees under a lease", name, round)
				}
				tenants[a].SetLeased(tenants[a].Leased() - 1)
				views[a].SetLeased(tenants[a].Leased())
			}
			step(t, tenants[a], rng.Float64())
			views[a].Publish(tenants[a].Scalars())
		}
	}
}

// UndoPick takes back everything a pick changed in the picker — the
// round-robin cursor, the WRR credit, HYBRID's freeze window. The server's
// case: a pick made on views that miss the latest observation is discarded,
// the observation is published, and the pick is made again; the picker must
// end up exactly where one pick on current state leaves it.
func TestUndoPickRestoresPickerState(t *testing.T) {
	builders := map[string]func() UserPicker{
		"round-robin":    func() UserPicker { return &RoundRobinPicker{} },
		"hybrid":         func() UserPicker { return NewHybridPicker() },
		"class-weighted": func() UserPicker { return NewClassWeightedPicker(nil) },
	}
	frozenAt := func(p UserPicker) bool {
		switch p := p.(type) {
		case *HybridPicker:
			return p.Frozen()
		case *ClassWeightedPicker:
			g, _ := p.Inner("guaranteed").(*HybridPicker)
			s, _ := p.Inner("standard").(*HybridPicker)
			return g != nil && s != nil && g.Frozen() && s.Frozen()
		}
		return false
	}
	for name, build := range builders {
		var tenants, views []*Tenant
		for i := 0; i < 8; i++ { // four per class: enough for HYBRID to freeze
			class, weight := "guaranteed", 4.0
			if i%2 == 1 {
				class, weight = "standard", 2.0
			}
			ten := newClassTenant(i, class, weight, 40)
			view := NewTenantView(i, ten.Name, ten.Scalars())
			view.Class, view.Weight = class, weight
			tenants, views = append(tenants, ten), append(views, view)
		}
		plain, undoing := build(), build()
		last := -1 // the tenant whose latest observation the views still miss
		for round := 0; round < 200; round++ {
			a := plain.Pick(tenants)
			if last >= 0 {
				undoing.Pick(views) // on stale views: discarded
				undoing.(PickUndoer).UndoPick()
				views[last].Publish(tenants[last].Scalars())
			}
			if b := undoing.Pick(views); a != b {
				t.Fatalf("%s round %d: picked %d, after an undone stale pick picked %d", name, round, a, b)
			}
			if frozenAt(plain) != frozenAt(undoing) {
				t.Fatalf("%s round %d: frozen %v, with undone stale picks %v", name, round, frozenAt(plain), frozenAt(undoing))
			}
			step(t, tenants[a], 0.5)
			last = a
		}
		if name != "round-robin" && !frozenAt(plain) {
			t.Errorf("%s: 200 constant-reward rounds did not freeze", name)
		}
	}
}
