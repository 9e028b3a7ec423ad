package experiments

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/core"
	"repro/internal/dataset"
)

// Cost-estimate sensitivity: the deployed system selects models with
// *profiled* cost estimates (Figure 1 step 2) but pays
// *true* costs. This ablation injects multiplicative log-normal noise into
// the costs the bandit sees and measures how fast the cost-aware advantage
// degrades — an engineering question the paper leaves implicit.

// noisyCostEnv wraps an env so the scheduler *sees* perturbed costs while
// the accounting (CumCost, budgets) charges true costs. Implementation: the
// bandit reads Cost at construction; the simulation charges env.Cost. So we
// hand NewSimulation an env whose Cost is noisy, then correct the budget
// axis by replaying true costs from the trace.
type noisyCostEnv struct {
	*core.MatrixEnv
	noisy [][]float64
}

func (e *noisyCostEnv) Cost(user, arm int) float64 { return e.noisy[user][arm] }

// CostNoiseResult reports the degradation curve.
type CostNoiseResult struct {
	NoiseSD []float64 // log-normal σ of the injected estimate noise
	AUC     []float64 // area under the avg-loss-vs-true-cost curve per σ
}

// RunCostNoise evaluates ease.ml with cost-estimate noise σ ∈ sigmas on the
// given dataset (defaults: {0, 0.1, 0.3, 1.0}).
func RunCostNoise(d *dataset.Dataset, cfg FigureConfig, sigmas []float64) (CostNoiseResult, error) {
	if d == nil {
		return CostNoiseResult{}, fmt.Errorf("experiments: cost-noise ablation needs a dataset")
	}
	cfg = cfg.withDefaults()
	if sigmas == nil {
		sigmas = []float64{0, 0.1, 0.3, 1.0}
	}
	proto, err := (&Protocol{
		Dataset:    d,
		TestUsers:  cfg.TestUsers,
		Runs:       cfg.runsFor(d),
		BudgetFrac: 0.25,
		CostAware:  true,
		Seed:       cfg.Seed,
	}).withDefaults()
	if err != nil {
		return CostNoiseResult{}, err
	}
	kernel := tunedKernel(proto)

	res := CostNoiseResult{NoiseSD: sigmas, AUC: make([]float64, len(sigmas))}
	for run := 0; run < proto.Runs; run++ {
		splitRng := rand.New(rand.NewSource(proto.Seed + int64(run)*7919))
		train, test := d.Split(proto.TestUsers, splitRng)
		features := d.QualityVectors(train)
		priorMean := meanQuality(d, train)
		baseEnv := core.NewMatrixEnv(d, test)
		budget := proto.BudgetFrac * baseEnv.TotalCost()

		for si, sigma := range sigmas {
			noiseRng := rand.New(rand.NewSource(proto.Seed ^ int64(run*331+si)))
			noisy := make([][]float64, baseEnv.NumUsers())
			for u := range noisy {
				noisy[u] = make([]float64, baseEnv.NumModels(u))
				for a := range noisy[u] {
					noisy[u][a] = baseEnv.Cost(u, a) * math.Exp(sigma*noiseRng.NormFloat64())
				}
			}
			env := &noisyCostEnv{MatrixEnv: baseEnv, noisy: noisy}
			sim, err := core.NewSimulation(core.SimConfig{
				Env:         env,
				UserPicker:  core.NewHybridPicker(),
				ModelPicker: core.UCBModelPicker{},
				Kernel:      kernel,
				Features:    features,
				NoiseVar:    proto.NoiseVar,
				CostAware:   true,
				PriorMean:   priorMean,
			})
			if err != nil {
				return CostNoiseResult{}, err
			}
			// Run until the TRUE cost spend reaches the budget; the sim's
			// internal accounting uses the noisy costs, so track true cost
			// from the trace.
			trueSpent := 0.0
			for trueSpent < budget {
				ok, err := sim.Step()
				if err != nil {
					return CostNoiseResult{}, err
				}
				if !ok {
					break
				}
				tp := sim.Trace()[len(sim.Trace())-1]
				trueSpent += baseEnv.Cost(tp.User, tp.Arm)
				res.AUC[si] += sim.AvgLoss() * baseEnv.Cost(tp.User, tp.Arm) / budget
			}
		}
	}
	for si := range res.AUC {
		res.AUC[si] /= float64(proto.Runs)
	}
	return res, nil
}
