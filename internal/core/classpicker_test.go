package core

import (
	"testing"

	"repro/internal/bandit"
	"repro/internal/gp"
)

// newClassTenant builds a tenant with k untried arms and the given class.
func newClassTenant(id int, class string, weight float64, k int) *Tenant {
	process := gp.NewFromFeatures(gp.RBF{Variance: 0.05, LengthScale: 0.3}, lineFeatures(k), 1e-4)
	costs := make([]float64, k)
	for i := range costs {
		costs[i] = 1
	}
	b := bandit.New(process, bandit.Config{Costs: costs})
	t := NewTenant(id, "tenant", b)
	t.Class = class
	t.Weight = weight
	return t
}

func roundRobin() UserPicker { return &RoundRobinPicker{} }

// serveCounts runs n picks, observing a fixed reward for each chosen tenant
// so arms deplete realistically, and tallies serves per tenant.
func serveCounts(t *testing.T, p UserPicker, tenants []*Tenant, n int) []int {
	t.Helper()
	counts := make([]int, len(tenants))
	for round := 0; round < n; round++ {
		idx := p.Pick(tenants)
		if idx < 0 {
			break
		}
		ten := tenants[idx]
		arm, ucb := ten.Bandit.SelectArm()
		if arm < 0 {
			t.Fatalf("round %d: picker chose exhausted tenant %d", round, idx)
		}
		if err := ten.Bandit.Observe(arm, 0.5); err != nil {
			t.Fatal(err)
		}
		ten.RecordObservation(ucb, 0.5)
		counts[idx]++
	}
	return counts
}

// Weighted fair sharing: with one tenant per class and plenty of arms, the
// serve ratio over a full WRR cycle tracks the class weights 4:2:1.
func TestClassWeightedPickerSharesByWeight(t *testing.T) {
	tenants := []*Tenant{
		newClassTenant(0, "guaranteed", 4, 60),
		newClassTenant(1, "standard", 2, 60),
		newClassTenant(2, "best-effort", 1, 60),
	}
	p := NewClassWeightedPicker(roundRobin)
	counts := serveCounts(t, p, tenants, 70) // ten full weight-7 cycles
	if counts[0] != 40 || counts[1] != 20 || counts[2] != 10 {
		t.Errorf("serves %v, want 40/20/10 under weights 4:2:1", counts)
	}
}

// Starvation freedom: the best-effort tenant is served at least once per
// ⌈W/w⌉ = 7 picks even while heavier classes stay active.
func TestClassWeightedPickerStarvationFree(t *testing.T) {
	tenants := []*Tenant{
		newClassTenant(0, "guaranteed", 4, 200),
		newClassTenant(1, "best-effort", 1, 200),
	}
	p := NewClassWeightedPicker(roundRobin)
	sinceBE := 0
	for round := 0; round < 100; round++ {
		idx := p.Pick(tenants)
		if idx < 0 {
			t.Fatal("picker stalled with active tenants")
		}
		ten := tenants[idx]
		arm, ucb := ten.Bandit.SelectArm()
		if err := ten.Bandit.Observe(arm, 0.5); err != nil {
			t.Fatal(err)
		}
		ten.RecordObservation(ucb, 0.5)
		if idx == 1 {
			sinceBE = 0
		} else {
			sinceBE++
			if sinceBE > 5 { // ⌈5/1⌉ picks is the smooth-WRR bound for W=5
				t.Fatalf("best-effort tenant starved for %d picks at round %d", sinceBE, round)
			}
		}
	}
}

// With a single class the wrapper is transparent: it must reproduce the
// inner picker's choices exactly, round for round.
func TestClassWeightedPickerSingleClassTransparent(t *testing.T) {
	mk := func() []*Tenant {
		return []*Tenant{
			newClassTenant(0, "", 0, 5),
			newClassTenant(1, "", 0, 5),
			newClassTenant(2, "", 0, 5),
		}
	}
	plain := mk()
	wrapped := mk()
	inner := &RoundRobinPicker{}
	outer := NewClassWeightedPicker(roundRobin)
	for round := 0; round < 15; round++ {
		a := inner.Pick(plain)
		b := outer.Pick(wrapped)
		if a != b {
			t.Fatalf("round %d: wrapper chose %d, inner %d", round, b, a)
		}
		if a < 0 {
			break
		}
		for _, tenants := range [][]*Tenant{plain, wrapped} {
			ten := tenants[a]
			arm, ucb := ten.Bandit.SelectArm()
			if err := ten.Bandit.Observe(arm, 0.5); err != nil {
				t.Fatal(err)
			}
			ten.RecordObservation(ucb, 0.5)
		}
	}
}

// A class whose tenants exhaust drops out; the remaining classes keep
// being served and the picker drains everything.
func TestClassWeightedPickerDrainsAcrossClasses(t *testing.T) {
	tenants := []*Tenant{
		newClassTenant(0, "guaranteed", 4, 2),
		newClassTenant(1, "best-effort", 1, 6),
	}
	p := NewClassWeightedPicker(roundRobin)
	counts := serveCounts(t, p, tenants, 100)
	if counts[0] != 2 || counts[1] != 6 {
		t.Errorf("serves %v, want full drain 2/6", counts)
	}
	if p.Pick(tenants) != -1 {
		t.Error("picker did not report exhaustion")
	}
}

// freezeRound runs HYBRID rounds with a constant reward — the candidate set
// and the best-quality total stop moving after the first sweep, so GREEDY is
// in its freezing stage — and returns the first round at which every class
// in want has frozen (-1: never within n rounds).
func freezeRound(t *testing.T, p *ClassWeightedPicker, tenants []*Tenant, n int, want ...string) int {
	t.Helper()
	for round := 0; round < n; round++ {
		idx := p.Pick(tenants)
		if idx < 0 {
			t.Fatalf("round %d: picker stalled", round)
		}
		arm, ucb := tenants[idx].Bandit.SelectArm()
		if err := tenants[idx].Bandit.Observe(arm, 0.5); err != nil {
			t.Fatal(err)
		}
		tenants[idx].RecordObservation(ucb, 0.5)
		all := true
		for _, class := range want {
			h, _ := p.Inner(class).(*HybridPicker)
			all = all && h != nil && h.Frozen()
		}
		if all {
			return round
		}
	}
	return -1
}

// HYBRID must reach its freezing stage under admission too. With one inner
// picker shared across classes the candidate-set signature alternated with
// the class being served and the stability window reset at every class
// switch, so two active classes never froze and the service silently ran
// GREEDY instead of the paper's §4.4 default.
func TestHybridFreezesPerClass(t *testing.T) {
	// Four identical tenants per class: fewer never settle on one candidate
	// set under a constant reward, with or without classes.
	var one, two []*Tenant
	for i := 0; i < 4; i++ {
		one = append(one, newClassTenant(i, "standard", 2, 80))
	}
	for i := 0; i < 8; i++ {
		if i%2 == 0 {
			two = append(two, newClassTenant(i, "guaranteed", 4, 80))
		} else {
			two = append(two, newClassTenant(i, "standard", 2, 80))
		}
	}
	if r := freezeRound(t, NewClassWeightedPicker(nil), one, 300, "standard"); r != 14 {
		t.Fatalf("a single class froze at round %d, want 14", r)
	}
	if r := freezeRound(t, NewClassWeightedPicker(nil), two, 300, "guaranteed", "standard"); r < 0 {
		t.Fatal("two active classes never froze in 300 constant-reward rounds")
	}
}

// A class that freezes does not freeze its neighbour: freeze detection
// watches one class's candidate set and best-quality total. The guaranteed
// class sees constant rewards and freezes; the standard class keeps
// improving, so its window keeps resetting.
func TestFrozenClassDoesNotFreezeItsNeighbour(t *testing.T) {
	var tenants []*Tenant
	for i := 0; i < 8; i++ {
		if i%2 == 0 {
			tenants = append(tenants, newClassTenant(i, "guaranteed", 4, 120))
		} else {
			tenants = append(tenants, newClassTenant(i, "standard", 2, 120))
		}
	}
	p := NewClassWeightedPicker(nil)
	improving := 0.1
	for round := 0; round < 150; round++ {
		idx := p.Pick(tenants)
		ten := tenants[idx]
		y := 0.5
		if ten.Class == "standard" {
			improving += 0.004
			y = improving
		}
		arm, ucb := ten.Bandit.SelectArm()
		if err := ten.Bandit.Observe(arm, y); err != nil {
			t.Fatal(err)
		}
		ten.RecordObservation(ucb, y)
	}
	if h := p.Inner("guaranteed").(*HybridPicker); !h.Frozen() {
		t.Error("the constant-reward class did not freeze")
	}
	if h := p.Inner("standard").(*HybridPicker); h.Frozen() {
		t.Error("the improving class froze along with its neighbour")
	}
}

// The linear scan behind Pick reports classes in order of their
// lowest-indexed *active* member with the largest *active* weight — the
// contract every faster ClassOracle is held to.
func TestClassScanOrdersByFirstActiveMember(t *testing.T) {
	tenants := []*Tenant{
		newClassTenant(0, "a", 1, 1), newClassTenant(1, "b", 3, 2),
		newClassTenant(2, "a", 5, 2), newClassTenant(3, "", 0, 2),
	}
	// Drain tenant 0: class a's first active member is now tenant 2.
	arm, _ := tenants[0].Bandit.SelectArm()
	tenants[0].Bandit.Retire(arm)
	var s classScan
	s.partition(tenants)
	got := s.ActiveClasses(nil)
	want := []ClassShare{{"b", 3}, {"a", 5}, {"standard", 1}}
	if len(got) != len(want) {
		t.Fatalf("active classes %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("active classes %v, want %v", got, want)
		}
	}
	members, index, _ := s.ClassMembers("a")
	if len(members) != 2 || index[0] != 0 || index[1] != 2 {
		t.Fatalf("class a members at %v, want [0 2]", index)
	}
}
