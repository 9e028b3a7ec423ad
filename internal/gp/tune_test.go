package gp

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/linalg"
)

// referenceSumLML is the likelihood sum as it was written before one factor
// served every sample: a fresh GP per sample, observing every arm in order,
// factorized from scratch. TuneRBF must reproduce its bits.
func referenceSumLML(k Kernel, features [][]float64, samples [][]float64, noiseVar float64) float64 {
	cov := CovarianceMatrix(k, features)
	var total float64
	for _, s := range samples {
		centered := center(s)
		g := New(cov, noiseVar)
		for arm, v := range centered {
			g.arms = append(g.arms, arm)
			g.ys = append(g.ys, v)
		}
		if err := g.refactor(); err != nil {
			return math.Inf(-1)
		}
		total += g.LogMarginalLikelihood()
	}
	return total
}

// referenceCovariance is CovarianceMatrix's generic loop: one Eval per pair.
func referenceCovariance(k Kernel, features [][]float64) *linalg.Matrix {
	n := len(features)
	m := linalg.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := k.Eval(features[i], features[j])
			m.Set(i, j, v)
			m.Set(j, i, v)
		}
	}
	return m
}

// The 3×4 grid internal/experiments and the select_paper workload tune
// over.
var tuningVariances, tuningLengthScales = []float64{0.01, 0.05, 0.1}, []float64{0.2, 0.5, 1, 2}

// tuningInputs builds what experiments.tunedKernel tunes on: the quality
// vectors of a seeded split's training users, and eight of those users'
// rows as samples.
func tuningInputs(d *dataset.Dataset, testUsers int, seed int64) (features, samples [][]float64) {
	train, _ := d.Split(testUsers, rand.New(rand.NewSource(seed^0x5eed)))
	features = d.QualityVectors(train)
	for _, u := range train[:min(8, len(train))] {
		samples = append(samples, append([]float64(nil), d.Quality[u]...))
	}
	return features, samples
}

// tuningDatasets are the select_paper workload's three settings.
func tuningDatasets() []*dataset.Dataset {
	return []*dataset.Dataset{dataset.Classifier179(), dataset.SynSized(0.5, 0.5, 60, 100), dataset.DeepLearning()}
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func TestTuneRBFMatchesPerSampleFactorization(t *testing.T) {
	for _, d := range tuningDatasets() {
		for seed := int64(1); seed <= 5; seed++ {
			features, samples := tuningInputs(d, 10, seed)
			want := TuneResult{LML: math.Inf(-1)}
			for _, v := range tuningVariances {
				for _, l := range tuningLengthScales {
					k := RBF{Variance: v, LengthScale: l}
					ref := referenceSumLML(k, features, samples, 1e-4)
					got := TuneRBF(features, samples, 1e-4, []float64{v}, []float64{l}).LML
					if !sameBits(got, ref) {
						t.Errorf("%s seed %d %s: LML %v (%#x), per-sample reference %v (%#x)",
							d.Name, seed, k.Name(), got, math.Float64bits(got), ref, math.Float64bits(ref))
					}
					if ref > want.LML {
						want = TuneResult{Kernel: k, LML: ref}
					}
				}
			}
			got := TuneRBF(features, samples, 1e-4, tuningVariances, tuningLengthScales)
			if got.Kernel != want.Kernel || !sameBits(got.LML, want.LML) {
				t.Errorf("%s seed %d: TuneRBF picked %v (LML %v), reference %v (LML %v)",
					d.Name, seed, got.Kernel, got.LML, want.Kernel, want.LML)
			}
		}
	}
}

// linearKernel is k(x, y) = v·⟨x, y⟩. With v < 0 it is negative definite,
// a prior no jitter rescues.
type linearKernel struct{ v float64 }

func (k linearKernel) Eval(x, y []float64) float64 { return k.v * linalg.Dot(x, y) }
func (k linearKernel) Name() string                { return fmt.Sprintf("linear(s²=%g)", k.v) }

// A prior no jitter makes positive definite scores −Inf, so a grid search
// never picks it.
func TestSumLMLNegativeDefiniteIsMinusInf(t *testing.T) {
	for _, d := range tuningDatasets() {
		features, samples := tuningInputs(d, 10, 1)
		if got := sumLML(CovarianceMatrix(linearKernel{-100}, features), samples, 1e-4); !math.IsInf(got, -1) {
			t.Errorf("%s: the negative-definite prior scored %v, want −Inf", d.Name, got)
		}
	}
}

func TestCovarianceMatrixMatchesEvalLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	kernels := []Kernel{
		RBF{Variance: 0.05, LengthScale: 0.5},
		RBF{Variance: 1.3, LengthScale: 2},
	}
	shapes := [][2]int{{179, 111}}
	for k := 1; k <= 9; k++ {
		shapes = append(shapes, [2]int{k, 1 + k%4}) // every remainder of the four-pair sweep
	}
	for _, shape := range shapes {
		features := make([][]float64, shape[0])
		for i := range features {
			features[i] = make([]float64, shape[1])
			for p := range features[i] {
				features[i][p] = rng.Float64()
			}
		}
		// A repeated point puts an exact zero distance off the diagonal.
		if len(features) > 2 {
			features[2] = append([]float64(nil), features[0]...)
		}
		for _, kern := range kernels {
			got, want := CovarianceMatrix(kern, features), referenceCovariance(kern, features)
			for i := 0; i < shape[0]; i++ {
				for j := 0; j < shape[0]; j++ {
					if !sameBits(got.At(i, j), want.At(i, j)) {
						t.Fatalf("K=%d D=%d %s: Σ[%d,%d] = %v, Eval loop %v",
							shape[0], shape[1], kern.Name(), i, j, got.At(i, j), want.At(i, j))
					}
				}
			}
		}
	}
}

// BenchmarkTuneRBF fits the select_paper workload's 179CLASSIFIER kernel:
// K=179 arms with 111-dimensional quality vectors, eight samples and the
// 3×4 grid of internal/experiments. Its bytes per op are pinned: going back
// to a factorization per sample costs ≈44 MB per fit, against ≈6 MB.
func BenchmarkTuneRBF(b *testing.B) {
	features, samples := tuningInputs(dataset.Classifier179(), 10, 1)
	b.ReportAllocs()
	var res TuneResult
	for b.Loop() {
		res = TuneRBF(features, samples, 1e-4, tuningVariances, tuningLengthScales)
	}
	if res.Kernel == nil {
		b.Fatalf("no kernel won: %+v", res)
	}
}
