package server

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/admission"
	"repro/internal/core"
)

// A class answers a pick from one pass over its dense columns, shared by
// GreedyChoice and GreedyCandidates and voided by any change to a member,
// plus a tried counter kept at publish. On random class states — served,
// unserved, leased and drained members, σ̃ tied at the mean, and the corner
// where no σ̃ reaches the mean — every answer equals the linear passes it
// replaced bit for bit: core.GreedyDecision's choice and candidate set, the
// index-order σ̃ fold, and HYBRID's own tried and best-observed passes. A
// HYBRID picking through the class agrees with one scanning its views.
func TestClassFoldMatchesLinearPasses(t *testing.T) {
	rng := rand.New(rand.NewSource(58))
	seen := map[string]int{}
	for state := 0; state < 400; state++ {
		n := 1 + rng.Intn(12)
		mode := rng.Intn(4) // 0: mixed σ̃; 1: all 0.1 (the corner); 2: all 0.25 (ties); 3: mixed with ties
		ix := &selectionIndex{}
		scalars := func(s core.Scalars) core.Scalars {
			if s.Arms == 0 {
				s.Arms = 1 + rng.Intn(6)
			}
			s.Tried += rng.Intn(s.Arms - s.Tried + 1)
			switch {
			case rng.Intn(4) == 0:
				s.SigmaTilde = math.Inf(1)
			case mode == 1:
				s.SigmaTilde = 0.1
			case mode == 2:
				s.SigmaTilde = 0.25
			case mode == 3:
				s.SigmaTilde = []float64{0.25, 0.5, 0.75}[rng.Intn(3)]
			default:
				s.SigmaTilde = rng.Float64()
			}
			s.Gap = []float64{0.1, 0.2, 0.2, 0.3}[rng.Intn(4)]
			if s.Tried == s.Arms {
				s.Gap = math.Inf(-1) // as core.Tenant.Gap reads an exhausted bandit
			}
			s.BestObserved = rng.Float64()
			return s
		}
		for k := 0; k < n; k++ {
			ix.add(&Job{ID: fmt.Sprintf("job-%04d", k), Class: admission.ClassStandard}, scalars(core.Scalars{}))
		}
		c := ix.classes[0]
		lease := func(k int) {
			v := c.views[k]
			ix.setLeased(k, make([]int, rng.Intn(v.Open()+1)))
		}
		for k := range c.views {
			lease(k)
		}
		oracle, linear := core.NewHybridPicker(), core.NewHybridPicker()
		for step := 0; step < 6; step++ {
			if step > 0 { // move one member between the queries
				k := rng.Intn(n)
				if rng.Intn(2) == 0 {
					ix.publish(k, scalars(c.views[k].Scalars()))
				}
				lease(k)
			}
			checkFold(t, c, seen, (state+step)%2 == 0)
			if a, b := oracle.PickWithOracle(c.views, c), linear.Pick(c.views); a != b {
				t.Fatalf("state %d step %d: HYBRID picked %d through the class, %d over its views", state, step, a, b)
			}
		}
	}
	for _, what := range []string{"served", "unserved", "leased", "drained", "tie", "corner", "idle"} {
		if seen[what] == 0 {
			t.Errorf("no state covered %q (%v)", what, seen)
		}
	}
}

// checkFold compares the class's answers with the linear passes, asking
// GreedyCandidates before GreedyChoice (candsFirst) or after it.
func checkFold(t *testing.T, c *selClass, seen map[string]int, candsFirst bool) {
	t.Helper()
	views := c.views
	choice, cands := core.GreedyDecision(views, func(i int) float64 { return views[i].Gap() })
	var sum float64
	tried, best, active := 0, 0.0, 0
	for _, v := range views {
		tried += v.NumTried()
		best += v.BestObserved()
		switch {
		case v.Leased() > 0:
			seen["leased"]++
		case v.Open() == 0:
			seen["drained"]++
		}
		if !v.Active() {
			continue
		}
		active++
		if st := v.SigmaTilde(); math.IsInf(st, 1) {
			seen["unserved"]++
		} else {
			sum += st
			seen["served"]++
		}
	}
	if active == 0 {
		seen["idle"]++
	} else if avg := sum / float64(active); slices.ContainsFunc(views, func(v *core.Tenant) bool { return v.Active() && v.SigmaTilde() == avg }) {
		seen["tie"]++
	} else if !slices.ContainsFunc(views, func(v *core.Tenant) bool { return v.Active() && v.SigmaTilde() >= avg }) {
		seen["corner"]++
	}

	var gotChoice int
	var gotCands []int
	if candsFirst {
		gotCands = slices.Clone(c.GreedyCandidates(views))
		gotChoice = c.GreedyChoice(views)
	} else {
		gotChoice = c.GreedyChoice(views)
		gotCands = slices.Clone(c.GreedyCandidates(views))
	}
	if gotChoice != choice || fmt.Sprintf("%x", gotCands) != fmt.Sprintf("%x", cands) {
		t.Fatalf("class answers %d over %v, the linear pass %d over %v", gotChoice, gotCands, choice, cands)
	}
	if active > 0 && fmt.Sprintf("%x", c.sum) != fmt.Sprintf("%x", sum) {
		t.Fatalf("σ̃ fold %x, the linear pass %x", c.sum, sum)
	}
	if c.TriedTotal() != tried || fmt.Sprintf("%x", c.BestObservedSum()) != fmt.Sprintf("%x", best) {
		t.Fatalf("freeze inputs (%d, %x), the linear passes (%d, %x)", c.TriedTotal(), c.BestObservedSum(), tried, best)
	}
}
