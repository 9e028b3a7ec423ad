package gp

import (
	"math/rand"
	"testing"
)

// The cached surfaces are written in place by a read while the process
// alone holds them. These tests pin both halves of that rule: what a
// shadow, a checkpoint or a rolled-back state holds is never written, and
// an unshared process reads without allocating a surface.

func copySurface(mu, raw []float64) (muCopy, rawCopy []float64) {
	return append([]float64(nil), mu...), append([]float64(nil), raw...)
}

// observeAndRead makes n real observations on g, each followed by a read
// checked against a from-scratch rebuild.
func observeAndRead(t *testing.T, rng *rand.Rand, g *GP, n int, label string) {
	t.Helper()
	for i := 0; i < n; i++ {
		mustObserve(t, g, rng.Intn(g.NumArms()), rng.Float64())
		g.Surface()
		checkRebuilt(t, g, nil, label)
	}
}

func checkHeld(t *testing.T, mu, raw, wantMu, wantRaw []float64, label string) {
	t.Helper()
	if !bitsEqual(mu, wantMu) || !bitsEqual(raw, wantRaw) {
		t.Fatalf("%s: a surface handed out was written after it was shared", label)
	}
}

func TestSharedSurfacesAreNeverWritten(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := randomProcess(t, rng, 60, 5)
		g.Surface()

		// A shadow shares the base's surfaces.
		s := g.Shadow()
		sMu, sRaw := s.Surface()
		sMuWant, sRawWant := copySurface(sMu, sRaw)
		observeAndRead(t, rng, g, 20, "base after Shadow")
		checkHeld(t, sMu, sRaw, sMuWant, sRawWant, "shadow")
		mu, raw := s.Surface()
		checkHeld(t, mu, raw, sMuWant, sRawWant, "shadow, read again")

		// A checkpoint holds the base's surfaces.
		cp := g.Checkpoint()
		cpMu, cpRaw := cp.postMu, cp.postRaw
		cpMuWant, cpRawWant := copySurface(cpMu, cpRaw)
		observeAndRead(t, rng, g, 20, "base after Checkpoint")
		checkHeld(t, cpMu, cpRaw, cpMuWant, cpRawWant, "checkpoint")

		// A rolled-back base reads the checkpoint's surfaces, which a
		// second Rollback restores again.
		g.Rollback(cp)
		observeAndRead(t, rng, g, 20, "base after Rollback")
		checkHeld(t, cpMu, cpRaw, cpMuWant, cpRawWant, "checkpoint after Rollback")
		g.Rollback(cp)
		mu, raw = g.Surface()
		checkHeld(t, mu, raw, cpMuWant, cpRawWant, "second Rollback")

		// A hallucination keeps the mean it was taken at; the real
		// observation after it re-sums µ into a fresh slice.
		kMu, kRaw := g.Surface()
		kMuWant, kRawWant := copySurface(kMu, kRaw)
		hcp := g.Checkpoint()
		mustHallucinate(t, g, rng.Intn(g.NumArms()))
		checkRebuilt(t, g, kMuWant, "base after hallucination")
		observeAndRead(t, rng, g, 20, "base after the hallucination")
		checkHeld(t, kMu, kRaw, kMuWant, kRawWant, "checkpoint before hallucination")
		g.Rollback(hcp)
		mu, raw = g.Surface()
		checkHeld(t, mu, raw, kMuWant, kRawWant, "rolled back over the hallucination")
	}
}

// One observation and one read of an unshared 179-arm process allocate the
// block row and the factor's bookkeeping, but no surface: the read folds
// the row into µ and the raw variance in place. After a Shadow the same
// step allocates exactly the two surfaces it may no longer write.
func TestUnsharedReadAllocatesNoSurface(t *testing.T) {
	const k, obs, runs = 179, 10, 40
	build := func() *GP {
		rng := rand.New(rand.NewSource(11))
		g := randomProcess(t, rng, k, obs)
		g.Surface()
		return g
	}
	arms := rand.New(rand.NewSource(12)).Perm(k)
	step := func(g *GP, i *int) {
		if err := g.Observe(arms[*i], float64(*i%7)/7); err != nil {
			t.Fatal(err)
		}
		*i++
		g.Surface()
	}

	owned, shared, shadowed := build(), build(), build()
	mu, _ := owned.Surface()
	var ownedI, sharedI int
	ownedAllocs := testing.AllocsPerRun(runs, func() { step(owned, &ownedI) })
	sharedAllocs := testing.AllocsPerRun(runs, func() {
		_ = shared.Shadow()
		step(shared, &sharedI)
	})
	shadowAllocs := testing.AllocsPerRun(runs, func() { _ = shadowed.Shadow() })

	if got, _ := owned.Surface(); &got[0] != &mu[0] {
		t.Fatal("an unshared read replaced its surface instead of writing it in place")
	}
	if extra := sharedAllocs - shadowAllocs - ownedAllocs; extra != 2 {
		t.Fatalf("a read after Shadow allocates %g objects more than an unshared read, want 2 (µ and the raw variance)", extra)
	}
	checkRebuilt(t, owned, nil, "in-place reads")
	checkRebuilt(t, shared, nil, "copying reads")
}
