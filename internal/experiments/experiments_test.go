package experiments

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"repro/internal/dataset"
)

// smallCfg keeps unit tests fast: few repetitions, small test sets.
var smallCfg = FigureConfig{RunsSmall: 5, RunsLarge: 2, TestUsers: 5, Seed: 3}

func TestProtocolDefaultsAndValidation(t *testing.T) {
	d := dataset.DeepLearning()
	p, err := (&Protocol{Dataset: d}).withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	if p.TestUsers != 10 || p.Runs != 50 || p.BudgetFrac != 0.5 || p.TrainFrac != 1 || p.GridPoints != 100 {
		t.Errorf("defaults %+v", p)
	}
	bad := []Protocol{
		{},
		{Dataset: d, TestUsers: 22},
		{Dataset: d, BudgetFrac: 1.5},
		{Dataset: d, TrainFrac: -0.1},
	}
	for i, b := range bad {
		if _, err := b.withDefaults(); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestRunProducesMonotoneCurves(t *testing.T) {
	res, err := Run(Protocol{
		Dataset:   dataset.DeepLearning(),
		TestUsers: 5,
		Runs:      3,
		CostAware: true,
		Seed:      11,
	}, []Strategy{EaseML(), RoundRobin()})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 2 {
		t.Fatalf("%d series", len(res.Series))
	}
	for _, s := range res.Series {
		if len(s.X) != 101 {
			t.Fatalf("%s: %d grid points", s.Label, len(s.X))
		}
		for g := 1; g < len(s.Avg); g++ {
			if s.Avg[g] > s.Avg[g-1]+1e-12 {
				t.Errorf("%s: avg loss increased at x=%g", s.Label, s.X[g])
			}
			if s.Worst[g] > s.Worst[g-1]+1e-12 {
				t.Errorf("%s: worst loss increased at x=%g", s.Label, s.X[g])
			}
		}
		// Worst dominates average pointwise.
		for g := range s.Avg {
			if s.Worst[g] < s.Avg[g]-1e-12 {
				t.Errorf("%s: worst %g below avg %g at x=%g", s.Label, s.Worst[g], s.Avg[g], s.X[g])
			}
		}
	}
}

func TestRunDeterministicPerSeed(t *testing.T) {
	p := Protocol{Dataset: dataset.DeepLearning(), TestUsers: 4, Runs: 2, Seed: 9}
	a, err := Run(p, []Strategy{EaseML()})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(p, []Strategy{EaseML()})
	if err != nil {
		t.Fatal(err)
	}
	for g := range a.Series[0].Avg {
		if a.Series[0].Avg[g] != b.Series[0].Avg[g] {
			t.Fatalf("same seed diverged at grid %d", g)
		}
	}
}

func TestRunRequiresStrategies(t *testing.T) {
	if _, err := Run(Protocol{Dataset: dataset.DeepLearning()}, nil); err == nil {
		t.Fatal("expected error without strategies")
	}
}

func TestLossCurveStep(t *testing.T) {
	c := &lossCurve{start: 0.5, fracs: []float64{0.2, 0.6}, losses: []float64{0.3, 0.1}}
	cases := []struct{ f, want float64 }{
		{0, 0.5}, {0.1, 0.5}, {0.2, 0.3}, {0.5, 0.3}, {0.6, 0.1}, {1, 0.1},
	}
	for _, tc := range cases {
		if got := c.at(tc.f); got != tc.want {
			t.Errorf("at(%g) = %g, want %g", tc.f, got, tc.want)
		}
	}
}

func TestSpeedupAt(t *testing.T) {
	ref := Series{X: []float64{0, 10, 20, 30}, Avg: []float64{0.5, 0.02, 0.01, 0.01}}
	base := Series{X: []float64{0, 10, 20, 30}, Avg: []float64{0.5, 0.4, 0.3, 0.02}}
	s, ok := SpeedupAt(ref, base, 0.02)
	if !ok || math.Abs(s-3) > 1e-12 {
		t.Errorf("speedup = %g, ok=%v; want 3", s, ok)
	}
	// Unreachable target.
	if _, ok := SpeedupAt(ref, base, 0.001); ok {
		t.Error("unreachable target should report !ok")
	}
}

func TestCrossover(t *testing.T) {
	// b starts behind a, durably overtakes at x=2.
	a := Series{X: []float64{0, 1, 2, 3}, Avg: []float64{0.5, 0.3, 0.2, 0.15}}
	b := Series{X: []float64{0, 1, 2, 3}, Avg: []float64{0.6, 0.4, 0.1, 0.05}}
	x, ok := Crossover(a, b)
	if !ok || x != 2 {
		t.Errorf("crossover = %g, ok=%v; want 2", x, ok)
	}
	// a never durably overtakes b (a is worse at the end).
	if _, ok := Crossover(b, a); ok {
		t.Error("crossover(b,a) should not exist: a finishes worse")
	}
	// A transient dip does not count as a durable crossover.
	c := Series{X: []float64{0, 1, 2, 3}, Avg: []float64{0.6, 0.1, 0.3, 0.2}}
	if _, ok := Crossover(a, c); ok {
		t.Error("transient overtaking reported as crossover")
	}
	// Never behind ⇒ no crossover.
	d := Series{X: []float64{0, 1, 2, 3}, Avg: []float64{0.4, 0.2, 0.1, 0.05}}
	if _, ok := Crossover(a, d); ok {
		t.Error("always-ahead series reported as crossover")
	}
}

func TestFigure8Stats(t *testing.T) {
	stats := Figure8()
	if len(stats) != 6 {
		t.Fatalf("%d datasets", len(stats))
	}
	if stats[0].Name != "DEEPLEARNING" || stats[0].NumUsers != 22 || stats[0].NumModels != 8 {
		t.Errorf("row 0: %+v", stats[0])
	}
	if stats[1].Name != "179CLASSIFIER" || stats[1].NumUsers != 121 || stats[1].NumModels != 179 {
		t.Errorf("row 1: %+v", stats[1])
	}
	var buf bytes.Buffer
	RenderStats(&buf, stats)
	out := buf.String()
	for _, want := range []string{"DEEPLEARNING", "SYN(0.5,1)", "Real", "Synthetic"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered stats missing %q:\n%s", want, out)
		}
	}
}

// The headline result: ease.ml must beat both heuristics end-to-end on
// DEEPLEARNING (Figure 9 shape: who wins).
func TestFigure9EaseMLWins(t *testing.T) {
	res, err := Figure9(smallCfg)
	if err != nil {
		t.Fatal(err)
	}
	last := len(res.Series[0].X) - 1
	ease := res.Series[0].Avg[last]
	cited := res.Series[1].Avg[last]
	recent := res.Series[2].Avg[last]
	if ease >= cited || ease >= recent {
		t.Errorf("ease.ml final loss %.4f not below heuristics (%.4f, %.4f)", ease, cited, recent)
	}
	if s, ok := Figure9Speedup(res, ease*1.5); ok && s < 1 {
		t.Errorf("speedup %g < 1", s)
	}
}

// figureCfg is the configuration the §5 figure benchmarks ran with: ten
// DEEPLEARNING repetitions, two on the larger datasets, ten test users,
// seed 1.
var figureCfg = FigureConfig{RunsSmall: 10, RunsLarge: 2, TestUsers: 10, Seed: 1}

// area is the sum of a series' average-loss curve over the budget grid.
func area(s Series) float64 {
	var a float64
	for _, v := range s.Avg {
		a += v
	}
	return a
}

// easeMLBelowBaselines asserts that ease.ml's average-loss area is at
// least 1 % below ROUNDROBIN's and RANDOM's, the strategies' order in
// Figures 10 and 11.
func easeMLBelowBaselines(t *testing.T, name string, res Result) {
	t.Helper()
	ease := area(res.Series[0])
	for _, b := range res.Series[1:] {
		if ease > 0.99*area(b) {
			t.Errorf("%s: ease.ml loss area %.4f not 1%% below %s's %.4f", name, ease, b.Label, area(b))
		}
	}
}

// Figure 10 (cost-oblivious): ease.ml ahead of ROUNDROBIN and RANDOM on the
// real-quality dataset and on SYN(0.5, 1).
func TestFigure10EaseMLBeatsBaselines(t *testing.T) {
	for _, d := range []*dataset.Dataset{dataset.DeepLearning(), dataset.Syn(0.5, 1.0)} {
		res, err := Run(Protocol{Dataset: d, TestUsers: figureCfg.TestUsers, Runs: figureCfg.runsFor(d), Seed: figureCfg.Seed},
			[]Strategy{EaseML(), RoundRobin(), Random()})
		if err != nil {
			t.Fatal(err)
		}
		easeMLBelowBaselines(t, d.Name, res)
	}
}

// Figure 11 (cost-aware): the same order on DEEPLEARNING under a cost
// budget.
func TestFigure11CostAwareEaseMLBeatsBaselines(t *testing.T) {
	res, err := Run(Protocol{Dataset: dataset.DeepLearning(), TestUsers: figureCfg.TestUsers, Runs: figureCfg.RunsSmall,
		CostAware: true, Seed: figureCfg.Seed}, []Strategy{EaseML(), RoundRobin(), Random()})
	if err != nil {
		t.Fatal(err)
	}
	easeMLBelowBaselines(t, "DEEPLEARNING", res)
}

// Figure 15 on 179CLASSIFIER, one repetition: at 10 % of the budget GREEDY
// is at least 10 % ahead of ROUNDROBIN, and HYBRID has kept within a
// quarter of that gap of GREEDY.
func TestFigure15HybridTracksGreedyEarly(t *testing.T) {
	cfg := figureCfg
	cfg.RunsLarge = 1
	res, err := Figure15(cfg)
	if err != nil {
		t.Fatal(err)
	}
	greedy, rr, hybrid := res.Series[0].Avg[10], res.Series[1].Avg[10], res.Series[2].Avg[10]
	if greedy > 0.9*rr {
		t.Errorf("at 10%%: GREEDY loss %.4f not 10%% below ROUNDROBIN's %.4f", greedy, rr)
	}
	if math.Abs(hybrid-greedy) > 0.25*(rr-greedy) {
		t.Errorf("at 10%%: HYBRID loss %.4f strays from GREEDY's %.4f by more than a quarter of the gap to ROUNDROBIN's %.4f",
			hybrid, greedy, rr)
	}
}

func TestFigure13CostAwarenessHelps(t *testing.T) {
	res, err := Figure13(smallCfg)
	if err != nil {
		t.Fatal(err)
	}
	// Cost-aware ease.ml should dominate the lesioned variant for most of
	// the run; compare the area under the average-loss curve.
	var areaAware, areaBlind float64
	for g := range res.Series[0].Avg {
		areaAware += res.Series[0].Avg[g]
		areaBlind += res.Series[1].Avg[g]
	}
	if areaAware >= areaBlind {
		t.Errorf("cost-aware AUC %.4f not below cost-oblivious %.4f", areaAware, areaBlind)
	}
}

func TestFigure14MoreTrainingDataHelps(t *testing.T) {
	res, err := Figure14(smallCfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 {
		t.Fatalf("%d variants", len(res))
	}
	area := func(r Result) float64 {
		var a float64
		for _, v := range r.Series[0].Avg {
			a += v
		}
		return a
	}
	a10, a100 := area(res["10%"]), area(res["100%"])
	if a100 > a10*1.1 {
		t.Errorf("full kernel AUC %.4f much worse than 10%% kernel %.4f", a100, a10)
	}
}

func TestRenderResult(t *testing.T) {
	res, err := Run(Protocol{Dataset: dataset.DeepLearning(), TestUsers: 4, Runs: 2, Seed: 5},
		[]Strategy{EaseML(), Random()})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	RenderResult(&buf, "Figure X", res)
	out := buf.String()
	for _, want := range []string{"Figure X", "ease.ml", "random", "average accuracy loss", "worst-case accuracy loss", "% of runs"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
	if got := Summary(res); !strings.Contains(got, "ease.ml: avg") {
		t.Errorf("Summary = %q", got)
	}
	var mbuf bytes.Buffer
	RenderResultMap(&mbuf, "Map", map[string]Result{"a": res})
	if !strings.Contains(mbuf.String(), "Map — a") {
		t.Error("RenderResultMap missing title")
	}
}

func TestFigureConfigDefaults(t *testing.T) {
	c := FigureConfig{}.withDefaults()
	if c.RunsSmall != 50 || c.RunsLarge != 10 || c.TestUsers != 10 || c.Seed != 1 {
		t.Errorf("defaults %+v", c)
	}
	if c.runsFor(dataset.DeepLearning()) != 50 {
		t.Error("DEEPLEARNING should use RunsSmall")
	}
	if c.runsFor(dataset.SynSized(0.5, 1, 30, 20)) != 10 {
		t.Error("SYN should use RunsLarge")
	}
}

func TestTrainFracRestrictsKernel(t *testing.T) {
	// Just exercise the path: TrainFrac 0.1 must not error and must produce
	// valid curves.
	res, err := Run(Protocol{
		Dataset:   dataset.DeepLearning(),
		TestUsers: 5,
		Runs:      2,
		TrainFrac: 0.1,
		CostAware: true,
		Seed:      21,
	}, []Strategy{EaseML()})
	if err != nil {
		t.Fatal(err)
	}
	last := len(res.Series[0].Avg) - 1
	if math.IsNaN(res.Series[0].Avg[last]) {
		t.Error("NaN loss with restricted kernel")
	}
}
