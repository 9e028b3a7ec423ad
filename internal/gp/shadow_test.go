package gp

import (
	"math/rand"
	"testing"
)

// randomProcess builds a well-conditioned GP over k arms and feeds it obs
// random observations.
func randomProcess(t *testing.T, rng *rand.Rand, k, obs int) *GP {
	t.Helper()
	g := NewFromFeatures(RBF{Variance: 0.05, LengthScale: 0.5}, randomFeatures(rng, k), 1e-4)
	for _, arm := range rng.Perm(k)[:obs] {
		if err := g.Observe(arm, rng.Float64()); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

func samePosterior(t *testing.T, want, got *GP, label string) {
	t.Helper()
	wmu, wsig := want.Posterior()
	gmu, gsig := got.Posterior()
	for j := range wmu {
		if wmu[j] != gmu[j] || wsig[j] != gsig[j] {
			t.Fatalf("%s: arm %d posterior (%g, %g), want (%g, %g) bit-exact",
				label, j, gmu[j], gsig[j], wmu[j], wsig[j])
		}
	}
}

// A shadow must reproduce the base posterior bit-for-bit, stay frozen when
// the base observes more (copy-on-write), and evolve exactly like a deep
// Clone when it observes on its own.
func TestShadowMatchesCloneBitExact(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		k := 8 + rng.Intn(25)
		obs := rng.Intn(k)
		g := randomProcess(t, rng, k, obs)

		clone := g.Clone()
		shadow := g.Shadow()
		samePosterior(t, g, shadow, "fresh shadow vs base")
		samePosterior(t, clone, shadow, "fresh shadow vs clone")

		// Both the shadow and the clone observe the same fake data; they
		// must stay bit-identical through the incremental updates.
		untried := make([]int, 0, k)
		seen := make(map[int]bool)
		arms, _ := g.Observations()
		for _, a := range arms {
			seen[a] = true
		}
		for j := 0; j < k; j++ {
			if !seen[j] {
				untried = append(untried, j)
			}
		}
		for _, a := range untried {
			y := rng.Float64()
			if err := shadow.Observe(a, y); err != nil {
				t.Fatal(err)
			}
			if err := clone.Observe(a, y); err != nil {
				t.Fatal(err)
			}
			samePosterior(t, clone, shadow, "shadow vs clone after hallucination")
		}
	}
}

// The base extending after a shadow was taken (the copy-on-write trigger)
// must leave the shadow's state untouched.
func TestShadowSurvivesBaseObserve(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	g := randomProcess(t, rng, 20, 10)
	frozen := g.Clone() // reference for the shadow's expected state
	shadow := g.Shadow()

	// Base moves on: several more observations, growing the shared factor.
	arms, _ := g.Observations()
	seen := make(map[int]bool)
	for _, a := range arms {
		seen[a] = true
	}
	for j := 0; j < g.NumArms(); j++ {
		if !seen[j] {
			if err := g.Observe(j, rng.Float64()); err != nil {
				t.Fatal(err)
			}
		}
	}
	if shadow.NumObservations() != frozen.NumObservations() {
		t.Fatalf("shadow grew with the base: %d obs", shadow.NumObservations())
	}
	samePosterior(t, frozen, shadow, "shadow after base observes")

	// And the shadow can still observe independently afterwards, tracking
	// a deep clone of its frozen state bit-for-bit.
	for j := 0; j < shadow.NumArms(); j++ {
		if seen[j] {
			continue
		}
		if err := shadow.Observe(j, 0.5); err != nil {
			t.Fatal(err)
		}
		if err := frozen.Observe(j, 0.5); err != nil {
			t.Fatal(err)
		}
		break
	}
	samePosterior(t, frozen, shadow, "shadow observe after base observes")
}

func TestPosteriorCache(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := randomProcess(t, rng, 12, 6)
	mu1, sig1 := g.Posterior()
	mu2, sig2 := g.Posterior()
	st := g.PosteriorCacheStats()
	if st.Misses == 0 || st.Hits == 0 {
		t.Fatalf("cache stats %+v: want ≥1 miss and ≥1 hit", st)
	}
	for j := range mu1 {
		if mu1[j] != mu2[j] || sig1[j] != sig2[j] {
			t.Fatalf("cached posterior diverged at arm %d", j)
		}
	}
	// Returned slices are the caller's: mutating them must not poison the
	// cache.
	mu2[0] = 1e9
	sig2[0] = 1e9
	mu3, sig3 := g.Posterior()
	if mu3[0] != mu1[0] || sig3[0] != sig1[0] {
		t.Fatal("caller mutation leaked into the cached surface")
	}
	// An observation invalidates; the recomputed surface must match a
	// cold computation.
	inv := st.Invalidations
	if err := g.Observe(7, 0.3); err != nil {
		t.Fatal(err)
	}
	if got := g.PosteriorCacheStats().Invalidations; got != inv+1 {
		t.Fatalf("invalidations = %d, want %d", got, inv+1)
	}
	fresh := g.Clone()
	samePosterior(t, fresh, g, "post-invalidation recompute")
}

// Shadow creation must not copy the O(t²) factor: allocation count stays
// flat as the history grows.
func TestShadowAllocFlat(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	small := randomProcess(t, rng, 12, 6)
	big := randomProcess(t, rng, 60, 55)
	allocsSmall := testing.AllocsPerRun(100, func() { _ = small.Shadow() })
	allocsBig := testing.AllocsPerRun(100, func() { _ = big.Shadow() })
	if allocsBig > allocsSmall {
		t.Fatalf("Shadow allocations grew with history: %g (t=6) vs %g (t=55)", allocsSmall, allocsBig)
	}
	if allocsBig > 3 {
		t.Fatalf("Shadow allocates %g objects, want ≤3", allocsBig)
	}
}
