package trainsim

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

// equivalenceSeeds returns the seeds the stream is checked on: the
// normalisation's edge cases (0 and its replacement, the modulus and its
// neighbours, both ends of int64) plus a spread over the whole int64 range.
func equivalenceSeeds(n int) []int64 {
	seeds := []int64{
		0, 1, -1, 2, 89482311, -89482311,
		lehmerM - 1, lehmerM, lehmerM + 1, -lehmerM, 2 * lehmerM, 1 << 31, -(1 << 31),
		math.MinInt64, math.MinInt64 + 1, math.MaxInt64, math.MaxInt64 - 1,
	}
	spread := rand.New(rand.NewSource(20170927))
	for len(seeds) < n {
		seeds = append(seeds, int64(spread.Uint64()), int64(spread.Intn(1<<20))-1<<19)
	}
	return seeds
}

func TestSourceMatchesStdlib(t *testing.T) {
	var s source
	for _, seed := range equivalenceSeeds(3000) {
		ref := rand.NewSource(seed).(rand.Source64)
		s.Seed(seed)
		for i := 0; i < 2000; i++ {
			if got, want := s.Uint64(), ref.Uint64(); got != want {
				t.Fatalf("seed %d: Uint64 #%d = %#x, rand.NewSource gives %#x", seed, i, got, want)
			}
		}
		got, want := rand.New(&s), rand.New(ref)
		for i := 0; i < 20; i++ {
			if g, w := got.Float64(), want.Float64(); g != w {
				t.Fatalf("seed %d: Float64 #%d = %v, want %v", seed, i, g, w)
			}
			if g, w := got.NormFloat64(), want.NormFloat64(); g != w {
				t.Fatalf("seed %d: NormFloat64 #%d = %v, want %v", seed, i, g, w)
			}
		}
	}
}

// referenceTrain is Train as written against a fresh rand.NewSource per run,
// evaluating every curve point: the behaviour Train must keep bit for bit.
func referenceTrain(s *Simulator, task, model int) Result {
	m := s.cfg.Models[model]
	t := s.cfg.Tasks[task]
	rng := rand.New(rand.NewSource(s.cfg.Seed ^ int64(task)*1000003 ^ int64(model)*7919))

	res := Result{Task: t.Name, Model: m.Name, Cost: s.Cost(task, model)}
	if s.cfg.KeepCurves {
		res.Curves = make(map[float64][]EpochPoint, len(s.cfg.LearningRates))
	}
	for _, lr := range s.cfg.LearningRates {
		final := s.converged(task, model, lr)
		diverged := lr > m.BestLR*50 && rng.Float64() < 0.5
		var last float64
		var curve []EpochPoint
		for e := 1; e <= s.cfg.Epochs; e++ {
			acc := final * (1 - math.Exp(-float64(e)/m.Tau))
			if diverged {
				acc = 0.05 + 0.02*rng.Float64()
			}
			acc += s.cfg.NoiseSD * rng.NormFloat64()
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

// resultDiff names the first difference between two results, comparing
// every float by its bits; "" means none.
func resultDiff(got, want Result) string {
	bits := math.Float64bits
	switch {
	case got.Task != want.Task || got.Model != want.Model:
		return "names"
	case bits(got.Accuracy) != bits(want.Accuracy):
		return "Accuracy"
	case bits(got.BestLR) != bits(want.BestLR):
		return "BestLR"
	case bits(got.Cost) != bits(want.Cost):
		return "Cost"
	case len(got.Curves) != len(want.Curves):
		return "curve count"
	}
	for lr, w := range want.Curves {
		g := got.Curves[lr]
		if len(g) != len(w) {
			return "curve length"
		}
		for i := range w {
			if g[i].Epoch != w[i].Epoch || bits(g[i].Accuracy) != bits(w[i].Accuracy) {
				return "curve point"
			}
		}
	}
	return ""
}

// equivalenceSim covers clamping at both ends (a task harder than every
// peak, one with no difficulty) and the diverging learning rates.
func equivalenceSim(t testing.TB, seed int64, keepCurves bool) *Simulator {
	t.Helper()
	sim, err := deepLearningSim([]TaskSpec{
		{Name: "easy", Difficulty: 0, SizeFactor: 1},
		{Name: "mid", Difficulty: 0.2, SizeFactor: 2.5},
		{Name: "impossible", Difficulty: 0.9, SizeFactor: 0.3},
	}, seed)
	if err != nil {
		t.Fatal(err)
	}
	sim.cfg.KeepCurves = keepCurves
	return sim
}

func TestTrainMatchesStdlibReference(t *testing.T) {
	for _, keep := range []bool{false, true} {
		for _, seed := range equivalenceSeeds(300) {
			sim := equivalenceSim(t, seed, keep)
			for task := 0; task < len(sim.cfg.Tasks); task++ {
				for model := 0; model < len(sim.cfg.Models); model++ {
					if what := resultDiff(sim.Train(task, model), referenceTrain(sim, task, model)); what != "" {
						t.Fatalf("KeepCurves %v, seed %d, task %d, model %d: %s differs from the rand.NewSource reference",
							keep, seed, task, model, what)
					}
				}
			}
		}
	}
}

// Pooled sources share no state: concurrent runs equal serial ones.
func TestTrainConcurrent(t *testing.T) {
	const goroutines = 8
	sims := make([]*Simulator, 0, 16)
	for _, seed := range equivalenceSeeds(16) {
		sims = append(sims, equivalenceSim(t, seed, false))
	}
	nt, nm := len(sims[0].cfg.Tasks), len(sims[0].cfg.Models)
	serial := make([]Result, len(sims)*nt*nm)
	for i := range serial {
		serial[i] = sims[i/(nt*nm)].Train(i/nm%nt, i%nm)
	}
	concurrent := make([][]Result, goroutines)
	var wg sync.WaitGroup
	for g := range concurrent {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			out := make([]Result, len(serial))
			for k := range out {
				i := (k + g*len(out)/goroutines) % len(out) // each goroutine starts elsewhere
				out[i] = sims[i/(nt*nm)].Train(i/nm%nt, i%nm)
			}
			concurrent[g] = out
		}(g)
	}
	wg.Wait()
	for g, out := range concurrent {
		for i := range serial {
			if what := resultDiff(out[i], serial[i]); what != "" {
				t.Fatalf("goroutine %d, run %d: %s differs from the serial run", g, i, what)
			}
		}
	}
}

// benchmarkSeed times seeding a register in place with the given lane
// fill: the lanes' start, then the fill (the last three words, which fill
// writes from the lanes fillLanes leaves, are left out).
func benchmarkSeed(b *testing.B, fillLanes func(*[rngLen]uint64, *[3][4]uint64, *[rngLen]uint64)) {
	var vec [rngLen]uint64
	var lanes [3][4]uint64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		lanes = seedLanes(int64(i))
		fillLanes(&vec, &lanes, &rngCooked)
	}
}
