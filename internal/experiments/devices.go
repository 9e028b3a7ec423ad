package experiments

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/gp"
)

// DeviceAblation reproduces the §5.3.2 single- vs multi-device discussion:
// the same ease.ml job sequence is replayed under the deployed strategy
// ("use all GPUs to train a single model", serialized at speedup g^α) and
// under the one-GPU-per-job alternative (jobs overlap, each at 1× speed),
// and the total accuracy loss is integrated over wall-clock time. The paper
// observes that the single-device option achieves lower accumulated regret
// because it returns models to users sooner, even though its makespan is
// longer under sublinear scaling.

// DeviceAblationResult reports both executions of one job sequence.
type DeviceAblationResult struct {
	// Regret integrals ∫ Σᵢ lossᵢ(t) dt up to the later makespan.
	SingleDeviceRegret float64
	MultiDeviceRegret  float64
	// Makespans (virtual wall-clock of the last completion).
	SingleMakespan float64
	MultiMakespan  float64
	// Time of the first completed model under each strategy.
	SingleFirstModel float64
	MultiFirstModel  float64
	Jobs             int
}

// DeviceAblationConfig parameterizes the ablation.
type DeviceAblationConfig struct {
	Dataset   *dataset.Dataset
	TestUsers int     // default 10
	GPUs      int     // default 24 (the paper's pool)
	Alpha     float64 // scaling exponent (default 0.9)
	Budget    float64 // fraction of total cost to schedule (default 0.5)
	Seed      int64
}

// RunDeviceAblation runs one HYBRID cost-aware scheduling pass to fix the
// job sequence, then replays it under both device strategies.
func RunDeviceAblation(cfg DeviceAblationConfig) (DeviceAblationResult, error) {
	if cfg.Dataset == nil {
		return DeviceAblationResult{}, fmt.Errorf("experiments: device ablation needs a dataset")
	}
	if cfg.TestUsers == 0 {
		cfg.TestUsers = 10
	}
	if cfg.GPUs == 0 {
		cfg.GPUs = 24
	}
	if cfg.Alpha == 0 {
		cfg.Alpha = 0.9
	}
	if cfg.Budget == 0 {
		cfg.Budget = 0.5
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 271828))
	train, test := cfg.Dataset.Split(cfg.TestUsers, rng)
	env := core.NewMatrixEnv(cfg.Dataset, test)
	sim, err := core.NewSimulation(core.SimConfig{
		Env:         env,
		UserPicker:  core.NewHybridPicker(),
		ModelPicker: core.UCBModelPicker{},
		Kernel:      gp.RBF{Variance: 0.05, LengthScale: 0.5},
		Features:    cfg.Dataset.QualityVectors(train),
		CostAware:   true,
		PriorMean:   meanQuality(cfg.Dataset, train),
	})
	if err != nil {
		return DeviceAblationResult{}, err
	}
	if _, err := sim.RunBudget(cfg.Budget * env.TotalCost()); err != nil {
		return DeviceAblationResult{}, err
	}
	trace := sim.Trace()
	if len(trace) == 0 {
		return DeviceAblationResult{}, fmt.Errorf("experiments: empty schedule")
	}

	best := make([]float64, env.NumUsers())
	for i := range best {
		best[i] = env.BestQuality(i)
	}

	single := replay(trace, best, func(pool *cluster.Pool, tp core.TracePoint) float64 {
		return pool.RunSingleDevice(tp.Cost).End
	}, cfg.GPUs, cfg.Alpha)
	multi := replay(trace, best, func(pool *cluster.Pool, tp core.TracePoint) float64 {
		return pool.RunOneGPU(tp.Cost).End
	}, cfg.GPUs, cfg.Alpha)

	// Integrate both to the same horizon so the comparison is fair.
	horizon := single.makespan
	if multi.makespan > horizon {
		horizon = multi.makespan
	}
	return DeviceAblationResult{
		SingleDeviceRegret: single.regretTo(horizon),
		MultiDeviceRegret:  multi.regretTo(horizon),
		SingleMakespan:     single.makespan,
		MultiMakespan:      multi.makespan,
		SingleFirstModel:   single.first,
		MultiFirstModel:    multi.first,
		Jobs:               len(trace),
	}, nil
}

// completionEvent is one model completion on the wall clock.
type completionEvent struct {
	at     float64
	user   int
	reward float64
}

type replayOutcome struct {
	events   []completionEvent
	best     []float64
	makespan float64
	first    float64
}

func replay(trace []core.TracePoint, bestQuality []float64,
	run func(*cluster.Pool, core.TracePoint) float64, gpus int, alpha float64) replayOutcome {

	pool := cluster.NewPool(gpus, alpha)
	out := replayOutcome{best: bestQuality}
	for _, tp := range trace {
		end := run(pool, tp)
		out.events = append(out.events, completionEvent{at: end, user: tp.User, reward: tp.Reward})
		if end > out.makespan {
			out.makespan = end
		}
		if out.first == 0 || end < out.first {
			out.first = end
		}
	}
	sort.Slice(out.events, func(i, j int) bool { return out.events[i].at < out.events[j].at })
	return out
}

// regretTo integrates Σᵢ lossᵢ(t) dt from 0 to horizon, where lossᵢ drops
// whenever one of user i's models completes with a new best reward.
func (r replayOutcome) regretTo(horizon float64) float64 {
	found := make([]float64, len(r.best)) // best reward observed so far (0 = none)
	totalLoss := 0.0
	for _, b := range r.best {
		totalLoss += b
	}
	var integral float64
	prev := 0.0
	for _, ev := range r.events {
		if ev.at > horizon {
			break
		}
		integral += float64(totalLoss * (ev.at - prev))
		prev = ev.at
		if ev.reward > found[ev.user] {
			totalLoss -= ev.reward - found[ev.user]
			found[ev.user] = ev.reward
		}
	}
	if horizon > prev {
		integral += float64(totalLoss * (horizon - prev))
	}
	return integral
}
