// Package trainsim simulates the GPU training substrate of ease.ml
// (substitution §3 of DESIGN.md): each (task, model) training run follows a
// saturating-exponential learning curve over 100 epochs, grid-searched over
// the initial learning rates {0.1, 0.01, 0.001, 0.0001} with an Adam-style
// optimizer, exactly the training protocol of §5.1.
//
// Runs are deterministic per (task, model) pair — replaying a pair returns
// the same accuracy and cost, mirroring the paper's replay of its training
// log. The service's SimTrainer drives one Simulator per job.
//
// A run draws from exactly the stream rand.NewSource(seed) would give, bit
// for bit, so every recorded accuracy, test expectation and benchmark
// output check stays what it was. The source is pooled and seeded in place
// (source.go), and with KeepCurves off the draws of each learning rate's
// 99 unkept epochs are skipped in bulk (skip.go). BenchmarkTrain on a
// 2-CPU AVX2 Xeon: a run took ≈ 6.5 µs, of which seeding ≈ 2.7 µs and the
// 396 unkept NormFloat64 draws ≈ 2.5 µs; it now takes ≈ 2.7 µs, of which
// seeding ≈ 0.8 µs (the AVX2 kernel; the portable lanes take about as long
// as the old seed) and skipping ≈ 1.6 µs. TestSourceMatchesStdlib and
// TestTrainMatchesStdlibReference pin the equivalence.
package trainsim

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
)

// DefaultLearningRates is the §5.1 grid.
var DefaultLearningRates = []float64{0.1, 0.01, 0.001, 0.0001}

// DefaultEpochs is the §5.1 per-setting epoch budget.
const DefaultEpochs = 100

// ModelSpec describes one candidate architecture's training behaviour.
type ModelSpec struct {
	Name string
	// Peak is the accuracy the model converges to with its best learning
	// rate on a task of zero difficulty.
	Peak float64
	// Tau is the learning-curve time constant in epochs: accuracy reaches
	// 1−e⁻¹ of its final value after Tau epochs.
	Tau float64
	// CostPerEpoch is the execution cost of one training epoch (scaled by
	// the task's size factor).
	CostPerEpoch float64
	// BestLR is the learning rate at which Peak is reached; other grid
	// points pay a mismatch penalty.
	BestLR float64
}

// TaskSpec describes one user task.
type TaskSpec struct {
	Name string
	// Difficulty is subtracted from every model's peak on this task.
	Difficulty float64
	// SizeFactor scales training cost (bigger datasets train longer).
	SizeFactor float64
}

// EpochPoint is one point of a learning curve.
type EpochPoint struct {
	Epoch    int
	Accuracy float64
}

// Result reports one completed grid-searched training run.
type Result struct {
	Task     string
	Model    string
	Accuracy float64 // best final accuracy across the grid
	BestLR   float64 // grid point that won
	Cost     float64 // total cost: epochs × grid size × cost/epoch × size factor
	Curves   map[float64][]EpochPoint
}

// Config parameterizes a Simulator.
type Config struct {
	Models        []ModelSpec
	Tasks         []TaskSpec
	Epochs        int       // default DefaultEpochs
	LearningRates []float64 // default DefaultLearningRates
	NoiseSD       float64   // per-epoch accuracy noise (default 0.005)
	Seed          int64     // base seed; (task, model) runs derive sub-seeds
	// KeepCurves retains full per-learning-rate curves on results (off by
	// default: curves are large and only examples need them).
	KeepCurves bool
}

// Simulator produces deterministic simulated training runs.
type Simulator struct {
	cfg Config
}

// New validates the configuration and returns a Simulator.
func New(cfg Config) (*Simulator, error) {
	if len(cfg.Models) == 0 || len(cfg.Tasks) == 0 {
		return nil, fmt.Errorf("trainsim: need at least one model and one task")
	}
	for _, m := range cfg.Models {
		if m.Peak < 0 || m.Peak > 1 {
			return nil, fmt.Errorf("trainsim: model %q peak %g outside [0,1]", m.Name, m.Peak)
		}
		if m.Tau <= 0 || m.CostPerEpoch <= 0 || m.BestLR <= 0 {
			return nil, fmt.Errorf("trainsim: model %q has non-positive tau/cost/lr", m.Name)
		}
	}
	for _, t := range cfg.Tasks {
		if t.SizeFactor <= 0 {
			return nil, fmt.Errorf("trainsim: task %q has non-positive size factor", t.Name)
		}
	}
	if cfg.Epochs == 0 {
		cfg.Epochs = DefaultEpochs
	}
	if cfg.LearningRates == nil {
		cfg.LearningRates = DefaultLearningRates
	}
	if cfg.NoiseSD == 0 {
		cfg.NoiseSD = 0.005
	}
	return &Simulator{cfg: cfg}, nil
}

// Cost returns the (deterministic) total cost of training model j on task i:
// the full grid of learning rates for the full epoch budget.
func (s *Simulator) Cost(task, model int) float64 {
	m := s.cfg.Models[model]
	t := s.cfg.Tasks[task]
	return m.CostPerEpoch * t.SizeFactor * float64(s.cfg.Epochs) * float64(len(s.cfg.LearningRates))
}

// runner is one run's random state, pooled so that a run allocates nothing.
type runner struct {
	src source
	rng *rand.Rand
}

var runners = sync.Pool{New: func() any {
	r := new(runner)
	r.rng = rand.New(&r.src)
	return r
}}

// Train runs the grid-searched training of model j on task i. The run is
// deterministic: the RNG is seeded from (Seed, task, model).
func (s *Simulator) Train(task, model int) Result {
	m := s.cfg.Models[model]
	t := s.cfg.Tasks[task]
	r := runners.Get().(*runner)
	defer runners.Put(r)
	rng := r.rng
	rng.Seed(s.cfg.Seed ^ int64(task)*1000003 ^ int64(model)*7919)

	res := Result{Task: t.Name, Model: m.Name, Cost: s.Cost(task, model)}
	if s.cfg.KeepCurves {
		res.Curves = make(map[float64][]EpochPoint, len(s.cfg.LearningRates))
	}
	for _, lr := range s.cfg.LearningRates {
		final := s.converged(task, model, lr)
		// Too-large learning rates also diverge occasionally.
		diverged := lr > m.BestLR*50 && rng.Float64() < 0.5
		// Every epoch draws its numbers, so the stream stays the same;
		// only the points a result keeps are evaluated, and skip consumes
		// the draws of the epochs before them.
		first := 1
		if !s.cfg.KeepCurves {
			first = s.cfg.Epochs
			r.src.skip(first-1, diverged, rng)
		}
		var last float64
		var curve []EpochPoint
		for e := first; e <= s.cfg.Epochs; e++ {
			var acc float64
			if diverged {
				acc = 0.05 + float64(0.02*rng.Float64())
			} else {
				acc = final * (1 - math.Exp(-float64(e)/m.Tau))
			}
			acc += float64(s.cfg.NoiseSD * rng.NormFloat64())
			acc = clamp01(acc)
			last = acc
			if s.cfg.KeepCurves {
				curve = append(curve, EpochPoint{Epoch: e, Accuracy: acc})
			}
		}
		if s.cfg.KeepCurves {
			res.Curves[lr] = curve
		}
		if last > res.Accuracy {
			res.Accuracy = last
			res.BestLR = lr
		}
	}
	return res
}

// converged returns the noise-free converged accuracy of (task, model, lr):
// the model peak, minus the task difficulty, scaled by the learning-rate
// mismatch penalty (one decade off costs ≈ 22% of the achievable headroom).
func (s *Simulator) converged(task, model int, lr float64) float64 {
	m := s.cfg.Models[model]
	t := s.cfg.Tasks[task]
	d := float64(math.Log10(lr)) - float64(math.Log10(m.BestLR))
	penalty := math.Exp(-d * d / 2)
	return clamp01((m.Peak - t.Difficulty) * penalty)
}

// TrueQuality returns the noise-free achievable accuracy of (task, model)
// under the best grid point — the ground truth the loss metrics compare
// against.
func (s *Simulator) TrueQuality(task, model int) float64 {
	best := 0.0
	for _, lr := range s.cfg.LearningRates {
		if q := s.converged(task, model, lr); q > best {
			best = q
		}
	}
	return best
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
