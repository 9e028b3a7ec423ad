package trainsim

import (
	"math"
	"testing"
	"testing/quick"
)

// deepLearningSim builds a Simulator with the eight §5.1 CNN architectures
// and the given synthetic tasks.
func deepLearningSim(tasks []TaskSpec, seed int64) (*Simulator, error) {
	models := []ModelSpec{
		{Name: "NIN", Peak: 0.62, Tau: 22, CostPerEpoch: 1.1, BestLR: 0.01},
		{Name: "GoogLeNet", Peak: 0.70, Tau: 30, CostPerEpoch: 1.6, BestLR: 0.01},
		{Name: "ResNet-50", Peak: 0.75, Tau: 35, CostPerEpoch: 3.9, BestLR: 0.001},
		{Name: "AlexNet", Peak: 0.57, Tau: 15, CostPerEpoch: 0.72, BestLR: 0.01},
		{Name: "BN-AlexNet", Peak: 0.60, Tau: 14, CostPerEpoch: 0.75, BestLR: 0.01},
		{Name: "ResNet-18", Peak: 0.70, Tau: 28, CostPerEpoch: 1.8, BestLR: 0.001},
		{Name: "VGG-16", Peak: 0.71, Tau: 32, CostPerEpoch: 15.5, BestLR: 0.001},
		{Name: "SqueezeNet", Peak: 0.58, Tau: 18, CostPerEpoch: 0.78, BestLR: 0.001},
	}
	return New(Config{Models: models, Tasks: tasks, Seed: seed})
}

func testSim(t testing.TB) *Simulator {
	t.Helper()
	sim, err := deepLearningSim([]TaskSpec{
		{Name: "easy", Difficulty: 0.0, SizeFactor: 1},
		{Name: "hard", Difficulty: 0.3, SizeFactor: 2},
	}, 7)
	if err != nil {
		t.Fatal(err)
	}
	return sim
}

func TestNewValidation(t *testing.T) {
	model := ModelSpec{Name: "m", Peak: 0.7, Tau: 10, CostPerEpoch: 1, BestLR: 0.01}
	task := TaskSpec{Name: "t", SizeFactor: 1}
	cases := map[string]Config{
		"no models": {Tasks: []TaskSpec{task}},
		"no tasks":  {Models: []ModelSpec{model}},
		"bad peak":  {Models: []ModelSpec{{Name: "m", Peak: 1.5, Tau: 1, CostPerEpoch: 1, BestLR: 0.1}}, Tasks: []TaskSpec{task}},
		"bad tau":   {Models: []ModelSpec{{Name: "m", Peak: 0.5, Tau: 0, CostPerEpoch: 1, BestLR: 0.1}}, Tasks: []TaskSpec{task}},
		"bad size":  {Models: []ModelSpec{model}, Tasks: []TaskSpec{{Name: "t", SizeFactor: 0}}},
	}
	for name, cfg := range cases {
		if _, err := New(cfg); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestTrainDeterministic(t *testing.T) {
	sim := testSim(t)
	a := sim.Train(0, 2)
	b := sim.Train(0, 2)
	if a.Accuracy != b.Accuracy || a.Cost != b.Cost || a.BestLR != b.BestLR {
		t.Errorf("replay diverged: %+v vs %+v", a, b)
	}
	// Different pairs use different sub-seeds.
	c := sim.Train(1, 2)
	if c.Accuracy == a.Accuracy {
		t.Error("different tasks produced identical accuracy (suspicious seeding)")
	}
}

func TestTrainAccuracyNearTruth(t *testing.T) {
	sim := testSim(t)
	for task := 0; task < len(sim.cfg.Tasks); task++ {
		for model := 0; model < len(sim.cfg.Models); model++ {
			res := sim.Train(task, model)
			truth := sim.TrueQuality(task, model)
			// 100 epochs ≥ ~3τ for every model, so the run should land
			// within noise plus the unconverged tail of the truth.
			if math.Abs(res.Accuracy-truth) > 0.08 {
				t.Errorf("task %d model %s: accuracy %.3f vs truth %.3f",
					task, res.Model, res.Accuracy, truth)
			}
		}
	}
}

func TestHarderTaskLowerAccuracy(t *testing.T) {
	sim := testSim(t)
	for model := 0; model < len(sim.cfg.Models); model++ {
		easy := sim.TrueQuality(0, model)
		hard := sim.TrueQuality(1, model)
		if hard >= easy {
			t.Errorf("model %d: hard task quality %.3f not below easy %.3f", model, hard, easy)
		}
	}
}

func TestCostModel(t *testing.T) {
	sim := testSim(t)
	// Cost = cost/epoch × size × epochs × grid size, deterministic.
	m := sim.cfg.Models[6] // VGG-16
	if m.Name != "VGG-16" {
		t.Fatalf("model order changed: %q", m.Name)
	}
	want := m.CostPerEpoch * 2 * 100 * 4
	if got := sim.Cost(1, 6); math.Abs(got-want) > 1e-9 {
		t.Errorf("Cost = %g, want %g", got, want)
	}
	// VGG-16 must dominate SqueezeNet by an order of magnitude.
	if sim.Cost(0, 6) < 10*sim.Cost(0, 7) {
		t.Errorf("VGG cost %g not ≫ SqueezeNet %g", sim.Cost(0, 6), sim.Cost(0, 7))
	}
}

func TestLearningRateGridSearch(t *testing.T) {
	sim := testSim(t)
	res := sim.Train(0, 0)
	found := false
	for _, lr := range DefaultLearningRates {
		if res.BestLR == lr {
			found = true
		}
	}
	if !found {
		t.Errorf("winning LR %g not on the grid", res.BestLR)
	}
}

func TestKeepCurves(t *testing.T) {
	sim, err := New(Config{
		Models:     []ModelSpec{{Name: "m", Peak: 0.8, Tau: 10, CostPerEpoch: 1, BestLR: 0.01}},
		Tasks:      []TaskSpec{{Name: "t", SizeFactor: 1}},
		Epochs:     20,
		KeepCurves: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	res := sim.Train(0, 0)
	if len(res.Curves) != len(DefaultLearningRates) {
		t.Fatalf("%d curves, want %d", len(res.Curves), len(DefaultLearningRates))
	}
	curve := res.Curves[0.01]
	if len(curve) != 20 {
		t.Fatalf("curve has %d points, want 20", len(curve))
	}
	// The curve should broadly increase (saturating exponential + noise).
	if curve[19].Accuracy < curve[0].Accuracy {
		t.Errorf("curve decreased: %.3f → %.3f", curve[0].Accuracy, curve[19].Accuracy)
	}
}

// Property: accuracies and ground truths always live in [0,1], and cost is
// positive, for arbitrary task difficulty.
func TestQuickTrainBounds(t *testing.T) {
	f := func(seed int64, diffRaw, sizeRaw uint8) bool {
		diff := float64(diffRaw) / 255 // [0,1]
		size := 0.1 + float64(sizeRaw)/64
		sim, err := deepLearningSim([]TaskSpec{{Name: "t", Difficulty: diff, SizeFactor: size}}, seed)
		if err != nil {
			return false
		}
		for j := 0; j < len(sim.cfg.Models); j++ {
			res := sim.Train(0, j)
			if res.Accuracy < 0 || res.Accuracy > 1 || res.Cost <= 0 {
				return false
			}
			tq := sim.TrueQuality(0, j)
			if tq < 0 || tq > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func BenchmarkTrain(b *testing.B) {
	sim, err := deepLearningSim([]TaskSpec{{Name: "t", Difficulty: 0.1, SizeFactor: 1}}, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.Train(0, i%len(sim.cfg.Models))
	}
}
