package gp

import (
	"math"
	"math/rand"
	"testing"
)

// The suite in this file pins the contract of the incrementally maintained
// posterior: however the solved-block rows were batched into reads, shared
// with shadows, rolled back or re-extended, the surface equals — bit for
// bit — the surface of a Clone, whose factor is rebuilt from the history
// and whose block is solved in one pass from row 0.

func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for j := range a {
		if math.Float64bits(a[j]) != math.Float64bits(b[j]) {
			return false
		}
	}
	return true
}

// checkRebuilt reads g's surface and compares it with a from-scratch
// rebuild. keptMu is nil when every observation since the last refactor or
// real observation was real: µ must then match the rebuild bit for bit too.
// After hallucinations µ is by construction the surface from before them
// (keptMu, bit for bit) and agrees with the rebuild — which re-sweeps it
// from a re-solved alpha — only to round-off.
func checkRebuilt(t *testing.T, g *GP, keptMu []float64, label string) (mu, sigma []float64) {
	t.Helper()
	mu, sigma = g.Posterior()
	wantMu, wantSigma := g.Clone().Posterior()
	if !bitsEqual(sigma, wantSigma) {
		t.Fatalf("%s: σ differs from the from-scratch rebuild\n got  %v\n want %v", label, sigma, wantSigma)
	}
	if keptMu == nil {
		if !bitsEqual(mu, wantMu) {
			t.Fatalf("%s: µ differs from the from-scratch rebuild\n got  %v\n want %v", label, mu, wantMu)
		}
		return mu, sigma
	}
	if !bitsEqual(mu, keptMu) {
		t.Fatalf("%s: hallucination moved µ\n got  %v\n want %v", label, mu, keptMu)
	}
	for j := range mu {
		if math.Abs(mu[j]-wantMu[j]) > 1e-9 {
			t.Fatalf("%s: kept µ(%d) = %g, rebuild says %g", label, j, mu[j], wantMu[j])
		}
	}
	return mu, sigma
}

func randomFeatures(rng *rand.Rand, k int) [][]float64 {
	features := make([][]float64, k)
	for j := range features {
		features[j] = []float64{rng.Float64(), rng.Float64()}
	}
	return features
}

func mustObserve(t *testing.T, g *GP, arm int, y float64) {
	t.Helper()
	if err := g.Observe(arm, y); err != nil {
		t.Fatal(err)
	}
}

func mustHallucinate(t *testing.T, g *GP, arm int) {
	t.Helper()
	if err := g.ObserveHallucinated(arm); err != nil {
		t.Fatal(err)
	}
}

// Random observation sequences, arms repeating, with reads skipped at
// random so the block lags the factor by several rows when it is next
// extended.
func TestIncrementalPosteriorMatchesRebuild(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		k := 3 + rng.Intn(40)
		g := NewFromFeatures(RBF{Variance: 0.05, LengthScale: 0.5}, randomFeatures(rng, k), 1e-4)
		checkRebuilt(t, g, nil, "prior")
		unread := 0
		for step := 0; step < 2*k; step++ {
			mustObserve(t, g, rng.Intn(k), rng.Float64())
			if rng.Intn(3) == 0 {
				unread++
				continue // back-to-back observes without a read
			}
			checkRebuilt(t, g, nil, "after observe")
		}
		checkRebuilt(t, g, nil, "final")
		if unread == 0 && k > 5 {
			t.Fatalf("seed %d never skipped a read", seed)
		}
	}
}

// Near-duplicate features under zero noise make the extended covariance
// numerically singular: a duplicate observed mid-run fails its extension
// and forces the jitter refactorization, which replaces the factor under a
// block that was solved against the old one.
func TestIncrementalPosteriorAcrossJitterRefactor(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		const pairs = 12
		features := make([][]float64, 2*pairs)
		for p := 0; p < pairs; p++ {
			x, y := rng.Float64()*4, rng.Float64()*4
			features[2*p] = []float64{x, y}
			features[2*p+1] = []float64{x + 1e-9, y}
		}
		g := NewFromFeatures(RBF{Variance: 1, LengthScale: 0.7}, features, 0)
		// One arm of every pair first: distinct points, no jitter needed.
		for _, p := range rng.Perm(pairs) {
			mustObserve(t, g, 2*p, rng.Float64())
			checkRebuilt(t, g, nil, "distinct arms")
		}
		if g.jitter != 0 {
			t.Fatalf("seed %d: jitter %g before any duplicate was observed", seed, g.jitter)
		}
		// Then the twins. A twin whose pivot rounds to ≤ 0 refactors, and the
		// block restarts from row 0 against the new factor.
		refactors := 0
		for _, p := range rng.Perm(pairs) {
			before := g.jitter
			mustObserve(t, g, 2*p+1, rng.Float64())
			if g.jitter != before {
				refactors++
				if len(g.postZ) != 0 {
					t.Fatalf("seed %d: %d solved values survived the refactor", seed, len(g.postZ))
				}
			}
			if rng.Intn(2) == 0 {
				checkRebuilt(t, g, nil, "twin arms")
			}
		}
		if refactors == 0 {
			t.Fatalf("seed %d: no duplicate arm forced a jitter refactor", seed)
		}
		checkRebuilt(t, g, nil, "final")
	}
}

// A failing observation — real or hallucinated — on an indefinite prior
// must leave the surface and the solved block exactly as they were, whether
// or not the block was current when it failed, and the process usable.
func TestIncrementalPosteriorSurvivesFailedObserve(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		k := 6 + rng.Intn(20)
		prior := CovarianceMatrix(RBF{Variance: 0.05, LengthScale: 0.5}, randomFeatures(rng, k))
		// Arms 0 and 1 covary far beyond their variances: any history
		// holding both is indefinite past the largest jitter tried.
		prior.Set(0, 1, 100)
		prior.Set(1, 0, 100)
		g := New(prior, 1e-4)
		rest := rng.Perm(k - 2)
		mustObserve(t, g, 0, 0.4)
		for _, a := range rest[:len(rest)/2] {
			mustObserve(t, g, a+2, rng.Float64())
		}
		lagging := seed%2 == 0 // fail with unread rows pending, or with none
		if !lagging {
			checkRebuilt(t, g, nil, "before failure")
		}
		obs, rows, raw := g.NumObservations(), len(g.postZ), g.postRaw
		if err := g.Observe(1, 0.9); err == nil {
			t.Fatal("indefinite observation accepted")
		}
		if g.NumObservations() != obs || len(g.postZ) != rows || !bitsEqual(g.postRaw, raw) {
			t.Fatalf("failed Observe moved state: %d obs (was %d), %d solved values (was %d)",
				g.NumObservations(), obs, len(g.postZ), rows)
		}
		mu, sigma := checkRebuilt(t, g, nil, "after failed Observe")
		if err := g.ObserveHallucinated(1); err == nil {
			t.Fatal("indefinite hallucination accepted")
		}
		mu2, sigma2 := checkRebuilt(t, g, nil, "after failed ObserveHallucinated")
		if !bitsEqual(mu, mu2) || !bitsEqual(sigma, sigma2) || g.NumObservations() != obs {
			t.Fatal("failed ObserveHallucinated moved the surface")
		}
		for _, a := range rest[len(rest)/2:] {
			mustObserve(t, g, a+2, rng.Float64())
			checkRebuilt(t, g, nil, "after recovery")
		}
	}
}

// Base and shadows share the block's storage and each side appends its own
// rows — real ones on the base, hallucinated ones on the shadows, in either
// order, with checkpoints rolled back in between. Nobody may see anybody
// else's rows.
func TestIncrementalPosteriorSharedWithShadows(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		k := 12 + rng.Intn(30)
		g := NewFromFeatures(RBF{Variance: 0.05, LengthScale: 0.5}, randomFeatures(rng, k), 1e-4)
		order := rng.Perm(k)
		next := func() int { a := order[0]; order = order[1:]; return a }
		for i := 0; i < 4; i++ {
			mustObserve(t, g, next(), rng.Float64())
		}
		for len(order) >= 8 {
			if rng.Intn(2) == 0 {
				g.Posterior() // split with a current block, or a lagging one
			}
			s1, s2 := g.Shadow(), g.Shadow()
			atSplit := g.Clone()
			kept, _ := s1.Posterior()
			a, b, c, d := next(), next(), next(), next()

			// Base and first shadow append a row each, in random order.
			if rng.Intn(2) == 0 {
				mustObserve(t, g, a, rng.Float64())
				checkRebuilt(t, g, nil, "base, appending first")
				mustHallucinate(t, s1, b)
			} else {
				mustHallucinate(t, s1, b)
				mustObserve(t, g, a, rng.Float64())
				checkRebuilt(t, g, nil, "base, appending second")
			}
			checkRebuilt(t, s1, kept, "shadow after hallucination")

			// Checkpoint, run ahead, roll back, take another branch.
			cp := s1.Checkpoint()
			muCP, sigmaCP := s1.Posterior()
			mustHallucinate(t, s1, c)
			mustHallucinate(t, s1, d)
			checkRebuilt(t, s1, kept, "shadow run ahead")
			s1.Rollback(cp)
			muRB, sigmaRB := checkRebuilt(t, s1, kept, "shadow rolled back")
			if !bitsEqual(muRB, muCP) || !bitsEqual(sigmaRB, sigmaCP) {
				t.Fatal("Rollback did not restore the checkpointed surface")
			}
			mustHallucinate(t, s1, d)
			checkRebuilt(t, s1, kept, "shadow on the other branch")

			// A real observation on the shadow re-sweeps µ.
			mustObserve(t, s1, c, rng.Float64())
			checkRebuilt(t, s1, nil, "shadow after real observe")

			// The second shadow slept through all of it.
			samePosterior(t, atSplit, s2, "idle shadow")
			mustObserve(t, s2, d, rng.Float64())
			checkRebuilt(t, s2, nil, "late shadow")
			checkRebuilt(t, g, nil, "base after the shadows")
		}
	}
}

// alphaRouteMu is the mean as it was computed before the surface was read
// off the solved block: Bᵀ·(Σt+σ²I)⁻¹y with a forward and a backward solve.
// It survives as the reference the row-order sum is checked against.
func alphaRouteMu(g *GP) []float64 {
	mu := make([]float64, g.NumArms())
	if len(g.arms) == 0 {
		return mu
	}
	alpha := g.chol.BackwardSolve(g.chol.ForwardSolve(g.ys))
	for i, a := range g.arms {
		for j, v := range g.prior.RowView(a) {
			mu[j] += alpha[i] * v
		}
	}
	return mu
}

// µ = Zᵀw and µ = Bᵀα are roundings of one number.
func TestMeanMatchesAlphaRoute(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		k := 3 + rng.Intn(40)
		g := NewFromFeatures(RBF{Variance: 0.05, LengthScale: 0.5}, randomFeatures(rng, k), 1e-4)
		for step := 0; step < 2*k; step++ {
			mustObserve(t, g, rng.Intn(k), rng.Float64())
			if rng.Intn(3) == 0 {
				continue
			}
			mu, _ := g.Posterior()
			for j, want := range alphaRouteMu(g) {
				if math.Abs(mu[j]-want) > 1e-9 {
					t.Fatalf("seed %d step %d: µ(%d) = %g, the α route gives %g", seed, step, j, mu[j], want)
				}
			}
		}
	}
}

// Mean(k) on a stale cache answers from the on-demand α without touching
// the block, and agrees with the surface the next read caches.
func TestMeanOnStaleCacheLeavesBlockAlone(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		k := 8 + rng.Intn(30)
		g := randomProcess(t, rng, k, k/2)
		g.Posterior()
		mustObserve(t, g, rng.Intn(k), rng.Float64())
		mustObserve(t, g, rng.Intn(k), rng.Float64())
		rows, stats := len(g.postZ), g.PosteriorCacheStats()
		stale := make([]float64, k)
		for j := range stale {
			stale[j] = g.Mean(j)
		}
		if g.postValid || len(g.postZ) != rows || g.PosteriorCacheStats() != stats {
			t.Fatalf("seed %d: Mean on a stale cache moved the block (%d → %d rows) or the counters", seed, rows, len(g.postZ))
		}
		mu, _ := g.Posterior()
		for j := range mu {
			if math.Abs(stale[j]-mu[j]) > 1e-12 {
				t.Fatalf("seed %d: stale Mean(%d) = %g, next read caches %g", seed, j, stale[j], mu[j])
			}
		}
	}
}

// A mean kept by a hallucination is not the row-order sum, and the process
// has to remember that through Checkpoint, Rollback and Shadow: the first
// read after a real observation must restart the sum, every time.
func TestKeptMeanSurvivesCheckpointRollbackShadow(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		k := 12 + rng.Intn(30)
		g := randomProcess(t, rng, k, 5)
		kept, _ := g.Posterior()
		order := rng.Perm(k)
		mustHallucinate(t, g, order[0])
		mustHallucinate(t, g, order[1])
		cp := g.Checkpoint()
		shadow := g.Shadow()
		before := g.PosteriorCacheStats().Rebuilds

		mustObserve(t, g, order[2], rng.Float64())
		checkRebuilt(t, g, nil, "real observe after the checkpoint")
		checkRebuilt(t, g, nil, "cached")
		mustObserve(t, g, order[3], rng.Float64())
		checkRebuilt(t, g, nil, "second real observe extends the restarted sum")
		if got := g.PosteriorCacheStats().Rebuilds - before; got != 1 {
			t.Fatalf("seed %d: %d rebuilds for one kept-mean re-accumulation", seed, got)
		}

		g.Rollback(cp)
		checkRebuilt(t, g, kept, "rolled back to the kept mean")
		mustObserve(t, g, order[4], rng.Float64())
		checkRebuilt(t, g, nil, "real observe after the rollback")
		if got := g.PosteriorCacheStats().Rebuilds - before; got != 2 {
			t.Fatalf("seed %d: %d rebuilds after the rollback's re-accumulation, want 2", seed, got)
		}

		checkRebuilt(t, shadow, kept, "shadow of a kept mean")
		mustObserve(t, shadow, order[5], rng.Float64())
		checkRebuilt(t, shadow, nil, "real observe on the shadow")
		if got := shadow.PosteriorCacheStats().Rebuilds; got != 1 {
			t.Fatalf("seed %d: shadow counted %d rebuilds, want 1", seed, got)
		}
	}
}

// Replay's shape: t observations with no read in between, then one read.
// The factor rows come from Extend's own solve instead of the block, w and
// the block from one pass — and every bit equals the process that read
// after each observation.
func TestReplayWithoutReadsMatchesReadEveryStep(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		k := 5 + rng.Intn(40)
		prior := CovarianceMatrix(RBF{Variance: 0.05, LengthScale: 0.5}, randomFeatures(rng, k))
		live, replay := New(prior, 1e-4), New(prior, 1e-4)
		for step := 0; step < k+k/2; step++ {
			arm, y := rng.Intn(k), rng.Float64()
			mustObserve(t, live, arm, y)
			live.Posterior()
			mustObserve(t, replay, arm, y)
		}
		if len(replay.postZ) != 0 {
			t.Fatalf("seed %d: replay solved %d block rows without a read", seed, len(replay.postZ))
		}
		samePosterior(t, live, replay, "replay")
		if !bitsEqual(live.w, replay.w) {
			t.Fatalf("seed %d: w differs between the gathered and the solved factor rows", seed)
		}
		if got := live.PosteriorCacheStats().Rebuilds; got != 0 {
			t.Fatalf("seed %d: reading after every observation rebuilt %d times", seed, got)
		}
		if got := replay.PosteriorCacheStats().Rebuilds; got != 1 {
			t.Fatalf("seed %d: one read from row 0 counted %d rebuilds", seed, got)
		}
	}
}

// observe gathers the new factor row out of the block exactly when the
// block holds a row per observation. White box: plant marked copies of the
// block's rows and see whether the marks reach the factor.
func TestObserveGathersOnlyFromCurrentBlock(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	const k, obs = 20, 8
	plant := func(g *GP, arm int) {
		rows := make([][]float64, len(g.postZ))
		for i, zi := range g.postZ {
			rows[i] = append([]float64(nil), zi...)
			rows[i][arm] = float64(i+1) * 1e-6
		}
		g.postZ = rows
	}
	factorRow := func(g *GP) []float64 {
		l := g.chol.L()
		return l.Row(l.Rows() - 1)
	}
	order := rng.Perm(k)

	current := randomProcess(t, rng, k, obs)
	current.Posterior()
	plant(current, order[0])
	mustObserve(t, current, order[0], 0.5)
	for i, v := range factorRow(current)[:obs] {
		if v != float64(i+1)*1e-6 {
			t.Fatalf("current block: factor row entry %d is %g, not the planted block value", i, v)
		}
	}

	lagging := randomProcess(t, rng, k, obs)
	lagging.Posterior()
	mustObserve(t, lagging, order[1], 0.5) // the block now lacks a row
	plant(lagging, order[2])
	mustObserve(t, lagging, order[2], 0.5)
	if want := factorRow(lagging.Clone()); !bitsEqual(factorRow(lagging), want) {
		t.Fatalf("lagging block: factor row %v, a rebuild solves %v", factorRow(lagging), want)
	}
}

// The O(K) path is the one a healthy tenant takes: a 179-arm process read
// after each of 90 observations never starts over, while a near-singular
// prior that forces jitter refactorizations is counted.
func TestRebuildsCounter(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const k, obs = 179, 90
	g := NewFromFeatures(RBF{Variance: 0.05, LengthScale: 0.5}, randomFeatures(rng, k), 1e-4)
	for _, arm := range rng.Perm(k)[:obs] {
		mustObserve(t, g, arm, rng.Float64())
		g.Posterior()
	}
	if st := g.PosteriorCacheStats(); st.Rebuilds != 0 || st.Misses != obs {
		t.Fatalf("healthy run: %+v, want %d misses and no rebuild", st, obs)
	}

	const pairs = 12
	features := make([][]float64, 2*pairs)
	for p := 0; p < pairs; p++ {
		x, y := rng.Float64()*4, rng.Float64()*4
		features[2*p] = []float64{x, y}
		features[2*p+1] = []float64{x + 1e-9, y}
	}
	s := NewFromFeatures(RBF{Variance: 1, LengthScale: 0.7}, features, 0)
	refactors := uint64(0)
	for _, arm := range append(rng.Perm(pairs), rng.Perm(pairs)...) {
		twin := s.NumObservations() >= pairs
		if twin {
			arm = 2*arm + 1
		} else {
			arm = 2 * arm
		}
		before := s.jitter
		mustObserve(t, s, arm, rng.Float64())
		if s.jitter != before {
			refactors++
		}
		s.Posterior()
	}
	if got := s.PosteriorCacheStats().Rebuilds; refactors == 0 || got != refactors {
		t.Fatalf("near-singular run: %d rebuilds for %d jitter refactorizations", got, refactors)
	}
}
