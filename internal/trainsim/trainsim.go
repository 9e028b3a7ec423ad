// Package trainsim simulates the GPU training substrate of ease.ml
// (substitution §3 of DESIGN.md): each (task, model) training run follows a
// saturating-exponential learning curve over 100 epochs, grid-searched over
// the initial learning rates {0.1, 0.01, 0.001, 0.0001} with an Adam-style
// optimizer, exactly the training protocol of §5.1.
//
// Runs are deterministic per (task, model) pair — replaying a pair returns
// the same accuracy and cost, mirroring the paper's replay of its training
// log — and the package adapts a Simulator to core.Env so the multi-tenant
// scheduler can drive live (simulated) training instead of a recorded
// matrix.
//
// A run draws from exactly the stream rand.NewSource(seed) would give, bit
// for bit, so every recorded accuracy, test expectation and benchmark
// output check stays what it was. The source is seeded in place (see
// source.go) and pooled rather than built per run, because building
// math/rand's 607-word register would be three fifths of a run's time and
// its only allocation. TestSourceMatchesStdlib and
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

// NumModels returns the number of candidate models.
func (s *Simulator) NumModels() int { return len(s.cfg.Models) }

// NumTasks returns the number of tasks.
func (s *Simulator) NumTasks() int { return len(s.cfg.Tasks) }

// Model returns the spec of model j.
func (s *Simulator) Model(j int) ModelSpec { return s.cfg.Models[j] }

// Task returns the spec of task i.
func (s *Simulator) Task(i int) TaskSpec { return s.cfg.Tasks[i] }

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
		var last float64
		var curve []EpochPoint
		for e := 1; e <= s.cfg.Epochs; e++ {
			// Every epoch draws its numbers, so the stream stays the same;
			// only the points a result keeps are evaluated.
			var jump float64
			if diverged {
				jump = rng.Float64()
			}
			noise := rng.NormFloat64()
			if !s.cfg.KeepCurves && e < s.cfg.Epochs {
				continue
			}
			acc := 0.05 + 0.02*jump
			if !diverged {
				acc = final * (1 - math.Exp(-float64(e)/m.Tau))
			}
			acc += s.cfg.NoiseSD * noise
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
	d := math.Log10(lr) - math.Log10(m.BestLR)
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

// Env adapts a Simulator to core.Env: Reward runs a (cached) simulated
// training and returns its measured accuracy; Cost is the deterministic grid
// cost; BestQuality is the noise-free ground truth.
type Env struct {
	sim   *Simulator
	cache map[[2]int]Result
}

// NewEnv wraps a Simulator as a scheduler environment.
func NewEnv(sim *Simulator) *Env {
	return &Env{sim: sim, cache: make(map[[2]int]Result)}
}

// NumUsers implements core.Env.
func (e *Env) NumUsers() int { return e.sim.NumTasks() }

// NumModels implements core.Env.
func (e *Env) NumModels(int) int { return e.sim.NumModels() }

// Reward implements core.Env by running (or replaying) the simulated
// training of (user, arm).
func (e *Env) Reward(user, arm int) float64 {
	key := [2]int{user, arm}
	res, ok := e.cache[key]
	if !ok {
		res = e.sim.Train(user, arm)
		e.cache[key] = res
	}
	return res.Accuracy
}

// Cost implements core.Env.
func (e *Env) Cost(user, arm int) float64 { return e.sim.Cost(user, arm) }

// BestQuality implements core.Env.
func (e *Env) BestQuality(user int) float64 {
	best := 0.0
	for j := 0; j < e.sim.NumModels(); j++ {
		if q := e.sim.TrueQuality(user, j); q > best {
			best = q
		}
	}
	return best
}

// Runs returns the completed training results in no particular order.
func (e *Env) Runs() []Result {
	out := make([]Result, 0, len(e.cache))
	for _, r := range e.cache {
		out = append(out, r)
	}
	return out
}

// DeepLearningSim builds a Simulator with the eight §5.1 CNN architectures
// and the given synthetic tasks, for examples and the live-training
// integration path.
func DeepLearningSim(tasks []TaskSpec, seed int64) (*Simulator, error) {
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
