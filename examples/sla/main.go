// Service guarantees and weighted satisfaction: the §4.5 extensions in
// action. A shared cluster serves one huge exploratory workload next to two
// small production tasks. Plain GREEDY chases the largest potential and can
// keep the small tenants waiting; wrapping it in a GuaranteedServicePicker
// gives every tenant a hard service window, and a WeightedGreedyPicker
// prioritizes the paying tenant without starving anyone.
//
// Run with: go run ./examples/sla
package main

import (
	"fmt"
	"log"
	"math/rand"

	"repro/internal/core"
	"repro/internal/gp"
)

func main() {
	// Workload: tenant 0 is a 40-model exploratory job; tenants 1 and 2 are
	// 12-model production tasks with tight quality needs.
	rng := rand.New(rand.NewSource(11))
	quality := [][]float64{
		randomRow(rng, 40, 0.30, 0.65),
		randomRow(rng, 12, 0.55, 0.90),
		randomRow(rng, 12, 0.50, 0.85),
	}

	run := func(label string, picker core.UserPicker) {
		env := &core.MatrixEnv{Quality: quality, Costs: unitCosts(quality)}
		sim, err := core.NewSimulation(core.SimConfig{
			Env:         env,
			UserPicker:  picker,
			ModelPicker: core.UCBModelPicker{},
			Kernel:      gp.RBF{Variance: 0.05, LengthScale: 0.3},
			Features:    lineFeatures(40),
			PriorMean:   0.5,
		})
		if err != nil {
			log.Fatal(err)
		}
		if _, err := sim.RunSteps(24); err != nil {
			log.Fatal(err)
		}
		serves := make([]int, 3)
		maxWait := make([]int, 3)
		last := []int{0, 0, 0}
		for _, tp := range sim.Trace() {
			serves[tp.User]++
			for u := 0; u < 3; u++ {
				if wait := tp.Step - last[u]; u != tp.User && wait > maxWait[u] {
					maxWait[u] = wait
				}
			}
			last[tp.User] = tp.Step
		}
		fmt.Printf("%-28s serves %v  max wait %v  avg loss %.4f\n",
			label, serves, maxWait, sim.AvgLoss())
	}

	fmt.Println("24 scheduling rounds, 3 tenants (40/12/12 models):")
	run("greedy", &core.GreedyPicker{})
	run("greedy + window(4)", &core.GuaranteedServicePicker{Inner: &core.GreedyPicker{}, Window: 4})
	run("weighted greedy (tenant 1)", &core.WeightedGreedyPicker{Weights: []float64{1, 5, 1}})

	// The same guarantee machinery composes with any inner policy.
	run("window(3) over round-robin", &core.GuaranteedServicePicker{Inner: &core.RoundRobinPicker{}, Window: 3})
}

func randomRow(rng *rand.Rand, k int, lo, hi float64) []float64 {
	row := make([]float64, k)
	for i := range row {
		row[i] = lo + (hi-lo)*rng.Float64()
	}
	return row
}

func unitCosts(quality [][]float64) [][]float64 {
	out := make([][]float64, len(quality))
	for i, row := range quality {
		out[i] = make([]float64, len(row))
		for j := range out[i] {
			out[i][j] = 1
		}
	}
	return out
}

func lineFeatures(k int) [][]float64 {
	f := make([][]float64, k)
	for i := range f {
		f[i] = []float64{float64(i) / float64(k)}
	}
	return f
}
