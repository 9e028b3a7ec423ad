package gp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/linalg"
)

func TestKernelValues(t *testing.T) {
	x := []float64{0, 0}
	y := []float64{3, 4} // distance 5
	tests := []struct {
		k    Kernel
		want float64
	}{
		{RBF{Variance: 2, LengthScale: 5}, 2 * math.Exp(-25.0/50.0)},
	}
	for _, tc := range tests {
		if got := tc.k.Eval(x, y); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("%s.Eval = %g, want %g", tc.k.Name(), got, tc.want)
		}
	}
}

func TestKernelSelfCovariance(t *testing.T) {
	x := []float64{1.5, -2, 0.25}
	kernels := []Kernel{
		RBF{Variance: 0.8, LengthScale: 1.2},
	}
	for _, k := range kernels {
		if got := k.Eval(x, x); math.Abs(got-0.8) > 1e-12 {
			t.Errorf("%s self-covariance = %g, want 0.8", k.Name(), got)
		}
	}
}

func TestCovarianceMatrixSymmetricPSD(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	features := make([][]float64, 12)
	for i := range features {
		features[i] = []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
	}
	cov := CovarianceMatrix(RBF{Variance: 1, LengthScale: 0.7}, features)
	for i := 0; i < cov.Rows(); i++ {
		for j := 0; j < cov.Cols(); j++ {
			if cov.At(i, j) != cov.At(j, i) {
				t.Fatalf("asymmetric at (%d,%d)", i, j)
			}
		}
	}
	// PSD: jittered Cholesky must succeed.
	if _, _, err := linalg.NewCholeskyJittered(cov, 1e-10, 12); err != nil {
		t.Fatalf("covariance not PSD: %v", err)
	}
}

func TestGPPriorState(t *testing.T) {
	g := NewFromFeatures(RBF{Variance: 2, LengthScale: 1}, [][]float64{{0}, {1}, {5}}, 0.01)
	if g.NumArms() != 3 || g.NumObservations() != 0 {
		t.Fatalf("arms=%d obs=%d", g.NumArms(), g.NumObservations())
	}
	for k := 0; k < 3; k++ {
		if got := g.Mean(k); got != 0 {
			t.Errorf("prior mean of arm %d = %g, want 0", k, got)
		}
		if got := g.Var(k); math.Abs(got-2) > 1e-12 {
			t.Errorf("prior var of arm %d = %g, want 2", k, got)
		}
	}
	mu, sigma := g.Posterior()
	for k := range mu {
		if mu[k] != 0 || math.Abs(sigma[k]-math.Sqrt(2)) > 1e-12 {
			t.Errorf("Posterior()[%d] = (%g,%g)", k, mu[k], sigma[k])
		}
	}
}

// Hand-computed single-observation posterior: with prior Σ and one
// observation y on arm a,
// µ(k) = Σ(a,k)·y/(Σ(a,a)+σ²), σ²(k) = Σ(k,k) − Σ(a,k)²/(Σ(a,a)+σ²).
func TestGPSingleObservationClosedForm(t *testing.T) {
	prior := linalg.NewMatrixFromRows([][]float64{
		{1.0, 0.6},
		{0.6, 1.0},
	})
	noise := 0.25
	g := New(prior, noise)
	g.Observe(0, 0.8)

	denom := 1.0 + noise
	wantMu0 := 0.8 / denom
	wantMu1 := 0.6 * 0.8 / denom
	wantVar0 := 1.0 - 1.0/denom
	wantVar1 := 1.0 - 0.36/denom

	if got := g.Mean(0); math.Abs(got-wantMu0) > 1e-10 {
		t.Errorf("µ(0) = %g, want %g", got, wantMu0)
	}
	if got := g.Mean(1); math.Abs(got-wantMu1) > 1e-10 {
		t.Errorf("µ(1) = %g, want %g", got, wantMu1)
	}
	if got := g.Var(0); math.Abs(got-wantVar0) > 1e-9 {
		t.Errorf("σ²(0) = %g, want %g", got, wantVar0)
	}
	if got := g.Var(1); math.Abs(got-wantVar1) > 1e-9 {
		t.Errorf("σ²(1) = %g, want %g", got, wantVar1)
	}
}

func TestGPObserveShrinksVariance(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	features := make([][]float64, 6)
	for i := range features {
		features[i] = []float64{rng.Float64(), rng.Float64()}
	}
	g := NewFromFeatures(RBF{Variance: 1, LengthScale: 0.5}, features, 0.01)
	prev := make([]float64, 6)
	for k := range prev {
		prev[k] = g.Var(k)
	}
	for step := 0; step < 6; step++ {
		g.Observe(step, rng.Float64())
		for k := 0; k < 6; k++ {
			v := g.Var(k)
			if v > prev[k]+1e-9 {
				t.Fatalf("step %d: variance of arm %d grew from %g to %g", step, k, prev[k], v)
			}
			prev[k] = v
		}
	}
}

func TestGPInterpolatesWithSmallNoise(t *testing.T) {
	features := [][]float64{{0}, {1}, {2}}
	g := NewFromFeatures(RBF{Variance: 1, LengthScale: 1}, features, 1e-8)
	g.Observe(1, 0.42)
	if got := g.Mean(1); math.Abs(got-0.42) > 1e-4 {
		t.Errorf("posterior mean at observed arm = %g, want ≈0.42", got)
	}
	if got := g.Var(1); got > 1e-4 {
		t.Errorf("posterior var at observed arm = %g, want ≈0", got)
	}
}

func TestGPRepeatedObservationsAverage(t *testing.T) {
	// With repeated noisy observations of the same arm, the posterior mean
	// approaches the sample mean.
	g := New(linalg.Identity(1), 0.1)
	vals := []float64{0.5, 0.7, 0.6, 0.6}
	for _, v := range vals {
		g.Observe(0, v)
	}
	// Posterior mean = t·ȳ/(t+σ²) for unit prior variance.
	want := 4 * 0.6 / (4 + 0.1)
	if got := g.Mean(0); math.Abs(got-want) > 1e-9 {
		t.Errorf("mean = %g, want %g", got, want)
	}
}

func TestGPResetAndClone(t *testing.T) {
	g := NewFromFeatures(RBF{Variance: 1, LengthScale: 1}, [][]float64{{0}, {3}}, 0.01)
	g.Observe(0, 1)
	c := g.Clone()
	g.Reset()
	if g.NumObservations() != 0 || g.Mean(0) != 0 {
		t.Error("Reset did not clear observations")
	}
	if c.NumObservations() != 1 {
		t.Error("Clone lost observations")
	}
	if math.Abs(c.Mean(0)-1.0/1.01) > 1e-9 {
		t.Errorf("clone mean = %g", c.Mean(0))
	}
	// Clone must be independent.
	c.Observe(1, 0.5)
	if g.NumObservations() != 0 {
		t.Error("clone shares state with original")
	}
}

func TestGPObserveOutOfRangePanics(t *testing.T) {
	g := New(linalg.Identity(2), 0.1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	g.Observe(2, 0.5)
}

func TestLogMarginalLikelihood(t *testing.T) {
	// Single observation y on a unit-variance arm with noise σ²:
	// log p(y) = −½ y²/(1+σ²) − ½ log(1+σ²) − ½ log 2π.
	g := New(linalg.Identity(1), 0.5)
	if got := g.LogMarginalLikelihood(); got != 0 {
		t.Errorf("empty LML = %g, want 0", got)
	}
	g.Observe(0, 0.3)
	want := -0.5*0.09/1.5 - 0.5*math.Log(1.5) - 0.5*math.Log(2*math.Pi)
	if got := g.LogMarginalLikelihood(); math.Abs(got-want) > 1e-9 {
		t.Errorf("LML = %g, want %g", got, want)
	}
}

func TestTuneRBFPrefersInformativeLengthScale(t *testing.T) {
	// Construct arms on a line whose rewards vary smoothly; the tuned
	// length scale should produce a higher LML than an absurdly tiny one.
	features := make([][]float64, 10)
	sample := make([]float64, 10)
	for i := range features {
		x := float64(i) / 9
		features[i] = []float64{x}
		sample[i] = 0.5 + 0.3*math.Sin(2*x)
	}
	res := TuneRBF(features, [][]float64{sample}, 0.01, nil, nil)
	if res.LML == math.Inf(-1) {
		t.Fatal("tuning failed")
	}
	tiny := referenceSumLML(RBF{Variance: 1e-3, LengthScale: 1e-4}, features, [][]float64{sample}, 0.01)
	if res.LML < tiny {
		t.Errorf("tuned LML %g worse than degenerate %g", res.LML, tiny)
	}
}

func TestTunePanics(t *testing.T) {
	for name, f := range map[string]func(){
		"empty samples":   func() { TuneRBF([][]float64{{0}}, nil, 0.01, nil, nil) },
		"length mismatch": func() { TuneRBF([][]float64{{0}, {1}}, [][]float64{{1}}, 0.01, nil, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}

// Property: posterior variance is always within [0, prior variance].
func TestQuickPosteriorVarianceBounds(t *testing.T) {
	f := func(seed int64, nObsRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		k := 8
		features := make([][]float64, k)
		for i := range features {
			features[i] = []float64{rng.Float64(), rng.Float64()}
		}
		g := NewFromFeatures(RBF{Variance: 0.5, LengthScale: 0.4}, features, 0.05)
		nObs := int(nObsRaw % 20)
		for o := 0; o < nObs; o++ {
			g.Observe(rng.Intn(k), rng.Float64())
		}
		for arm := 0; arm < k; arm++ {
			v := g.Var(arm)
			if v < 0 || v > g.PriorVar(arm)+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: Posterior() agrees with per-arm Mean/Std.
func TestQuickPosteriorConsistency(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := 5
		features := make([][]float64, k)
		for i := range features {
			features[i] = []float64{rng.Float64()}
		}
		g := NewFromFeatures(RBF{Variance: 1, LengthScale: 0.5}, features, 0.02)
		for o := 0; o < 7; o++ {
			g.Observe(rng.Intn(k), rng.Float64())
		}
		mu, sigma := g.Posterior()
		for arm := 0; arm < k; arm++ {
			if math.Abs(mu[arm]-g.Mean(arm)) > 1e-9 || math.Abs(sigma[arm]-g.Std(arm)) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func BenchmarkGPObserve(b *testing.B) {
	rng := rand.New(rand.NewSource(21))
	k := 100
	features := make([][]float64, k)
	for i := range features {
		features[i] = []float64{rng.Float64(), rng.Float64(), rng.Float64()}
	}
	cov := CovarianceMatrix(RBF{Variance: 0.5, LengthScale: 0.5}, features)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := New(cov, 0.01)
		for o := 0; o < 50; o++ {
			g.Observe(o%k, rng.Float64())
		}
	}
}

func BenchmarkGPPosterior100Arms(b *testing.B) {
	rng := rand.New(rand.NewSource(22))
	k := 100
	features := make([][]float64, k)
	for i := range features {
		features[i] = []float64{rng.Float64(), rng.Float64()}
	}
	g := NewFromFeatures(RBF{Variance: 0.5, LengthScale: 0.5}, features, 0.01)
	for o := 0; o < 50; o++ {
		g.Observe(rng.Intn(k), rng.Float64())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Posterior()
	}
}

// An indefinite prior must surface as an Observe error — never a panic —
// and leave the posterior exactly as before the failed call.
func TestObserveIndefinitePriorReturnsError(t *testing.T) {
	bad := linalg.NewMatrixFromRows([][]float64{{1, 100}, {100, 1}})
	g := New(bad, 1e-6)
	if err := g.Observe(0, 0.5); err != nil {
		t.Fatalf("1×1 observation covariance should factorize: %v", err)
	}
	mean0 := g.Mean(0)
	if err := g.Observe(1, 0.7); err == nil {
		t.Fatal("indefinite covariance accepted")
	}
	// Rolled back: one observation, posterior unchanged, process usable.
	if g.NumObservations() != 1 {
		t.Errorf("failed observation not rolled back: t = %d", g.NumObservations())
	}
	if got := g.Mean(0); got != mean0 {
		t.Errorf("posterior mean changed by failed observation: %g vs %g", got, mean0)
	}
	if err := g.Observe(1, 0.7); err == nil {
		t.Error("retry of the indefinite observation should keep failing")
	}
}

// The batched Posterior must agree with the per-arm Mean/Var path to
// floating-point identity at every step of a realistic observation
// sequence — the one-L⁻¹-pass rewrite changes the memory walk, not the
// math.
func TestPosteriorMatchesPerArmMeanVar(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 5; trial++ {
		k := 8 + rng.Intn(25)
		features := make([][]float64, k)
		for j := range features {
			features[j] = []float64{rng.Float64(), rng.Float64()}
		}
		g := NewFromFeatures(RBF{Variance: 0.05, LengthScale: 0.5}, features, 1e-4)
		order := rng.Perm(k)
		for step, arm := range order {
			if err := g.Observe(arm, rng.Float64()); err != nil {
				t.Fatal(err)
			}
			mu, sigma := g.Posterior()
			if len(mu) != k || len(sigma) != k {
				t.Fatalf("posterior shape %d/%d for %d arms", len(mu), len(sigma), k)
			}
			for j := 0; j < k; j++ {
				if dm := math.Abs(mu[j] - g.Mean(j)); dm > 1e-10 {
					t.Fatalf("trial %d step %d arm %d: batched mean %g vs Mean %g (Δ %g)",
						trial, step, j, mu[j], g.Mean(j), dm)
				}
				if ds := math.Abs(sigma[j] - g.Std(j)); ds > 1e-10 {
					t.Fatalf("trial %d step %d arm %d: batched std %g vs Std %g (Δ %g)",
						trial, step, j, sigma[j], g.Std(j), ds)
				}
			}
		}
	}
}

// BenchmarkPosterior measures the full-posterior pass at a realistic
// (K arms, t observations) operating point — the inner loop of every
// GP-UCB selection.
func BenchmarkPosterior(b *testing.B) {
	const k, obs = 35, 30
	rng := rand.New(rand.NewSource(3))
	features := make([][]float64, k)
	for j := range features {
		features[j] = []float64{rng.Float64(), rng.Float64()}
	}
	g := NewFromFeatures(RBF{Variance: 0.05, LengthScale: 0.5}, features, 1e-4)
	for _, arm := range rng.Perm(k)[:obs] {
		if err := g.Observe(arm, rng.Float64()); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mu, sigma := g.Posterior()
		if len(mu) != k || len(sigma) != k {
			b.Fatal("bad shape")
		}
	}
}

// BenchmarkObservePosterior measures the steady state of Algorithm 1 on a
// 179CLASSIFIER-sized tenant: one observation followed by one full-surface
// read, from t = 1 to t = 90. One iteration is the whole 90-step run.
func BenchmarkObservePosterior(b *testing.B) {
	const k, obs = 179, 90
	rng := rand.New(rand.NewSource(3))
	prior := CovarianceMatrix(RBF{Variance: 0.05, LengthScale: 0.5}, randomFeatures(rng, k))
	order := rng.Perm(k)[:obs]
	ys := make([]float64, obs)
	for i := range ys {
		ys[i] = rng.Float64()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := New(prior, 1e-4)
		for step, arm := range order {
			if err := g.Observe(arm, ys[step]); err != nil {
				b.Fatal(err)
			}
			mu, sigma := g.Posterior()
			if len(mu) != k || len(sigma) != k {
				b.Fatal("bad shape")
			}
		}
	}
}
