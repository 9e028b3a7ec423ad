package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/dataset"
	"repro/internal/gp"
)

// lineFeatures builds 1-D features spread over [0,1) for k arms.
func lineFeatures(k int) [][]float64 {
	f := make([][]float64, k)
	for i := range f {
		f[i] = []float64{float64(i) / float64(k)}
	}
	return f
}

func simpleEnv(quality, cost [][]float64) *MatrixEnv {
	return &MatrixEnv{Quality: quality, Costs: cost}
}

func unitCostMatrix(n, k int) [][]float64 {
	c := make([][]float64, n)
	for i := range c {
		c[i] = make([]float64, k)
		for j := range c[i] {
			c[i][j] = 1
		}
	}
	return c
}

func newSim(t testing.TB, env Env, up UserPicker, mp ModelPicker, costAware bool) *Simulation {
	t.Helper()
	k := 0
	for i := 0; i < env.NumUsers(); i++ {
		if ki := env.NumModels(i); ki > k {
			k = ki
		}
	}
	s, err := NewSimulation(SimConfig{
		Env:         env,
		UserPicker:  up,
		ModelPicker: mp,
		Kernel:      gp.RBF{Variance: 0.05, LengthScale: 0.3},
		Features:    lineFeatures(k),
		NoiseVar:    1e-4,
		CostAware:   costAware,
		PriorMean:   0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestMatrixEnv(t *testing.T) {
	d := dataset.DeepLearning()
	env := NewMatrixEnv(d, []int{0, 5})
	if env.NumUsers() != 2 || env.NumModels(0) != 8 {
		t.Fatalf("env shape %d users × %d models", env.NumUsers(), env.NumModels(0))
	}
	if env.Reward(1, 3) != d.Quality[5][3] || env.Cost(1, 3) != d.Cost[5][3] {
		t.Error("env does not replay dataset rows")
	}
	if env.BestQuality(0) != d.BestQuality(0) {
		t.Error("BestQuality mismatch")
	}
	if env.TotalRuns() != 16 {
		t.Errorf("TotalRuns = %d, want 16", env.TotalRuns())
	}
	wantCost := d.TotalCost([]int{0, 5})
	if math.Abs(env.TotalCost()-wantCost) > 1e-9 {
		t.Errorf("TotalCost = %g, want %g", env.TotalCost(), wantCost)
	}
	if err := env.Validate(); err != nil {
		t.Fatal(err)
	}
	// nil users means all users.
	envAll := NewMatrixEnv(d, nil)
	if envAll.NumUsers() != 22 {
		t.Errorf("nil users gave %d users", envAll.NumUsers())
	}
}

func TestMatrixEnvValidate(t *testing.T) {
	bad := []*MatrixEnv{
		{Quality: [][]float64{{0.5}}, Costs: [][]float64{}},
		{Quality: [][]float64{{0.5, 0.5}}, Costs: [][]float64{{1}}},
		{Quality: [][]float64{{}}, Costs: [][]float64{{}}},
		{Quality: [][]float64{{0.5}}, Costs: [][]float64{{0}}},
	}
	for i, env := range bad {
		if err := env.Validate(); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

// The §4.1 counterexample: FCFS accumulates regret 2.15 after two rounds
// whereas serving the second user at round 2 yields 1.50 (paper values 215
// vs 150 on a 0–100 scale).
func TestFCFSCounterexample(t *testing.T) {
	quality := [][]float64{
		{0.90, 0.95, 1.00}, // U1
		{0.70, 0.95, 1.00}, // U2
	}
	cost := unitCostMatrix(2, 3)
	inOrder := &FixedOrderModelPicker{Label: "in-order", Order: []int{0, 1, 2}}

	fcfs := newSim(t, simpleEnv(quality, cost), FCFSPicker{}, inOrder, false)
	if _, err := fcfs.RunSteps(2); err != nil {
		t.Fatal(err)
	}
	// Round 1: U1 plays M1 → r1=0.10, r2=1.00 (unserved) ⇒ 1.10.
	// Round 2: U1 plays M2 → r1=0.05, r2=1.00 ⇒ cumulative 2.15.
	if got := fcfs.CumulativeRegret(); math.Abs(got-2.15) > 1e-9 {
		t.Errorf("FCFS regret = %g, want 2.15", got)
	}

	rr := newSim(t, simpleEnv(quality, cost), &RoundRobinPicker{}, inOrder, false)
	if _, err := rr.RunSteps(2); err != nil {
		t.Fatal(err)
	}
	// Round 1: U1 plays M1 ⇒ 1.10. Round 2: U2 plays M1 → r1=0.10,
	// r2=0.30 ⇒ cumulative 1.50.
	if got := rr.CumulativeRegret(); math.Abs(got-1.50) > 1e-9 {
		t.Errorf("RR regret = %g, want 1.50", got)
	}
}

func TestRoundRobinCyclesAndSkipsExhausted(t *testing.T) {
	quality := [][]float64{
		{0.5},      // one model only — exhausted after one serve
		{0.4, 0.6}, // two models
		{0.3, 0.7},
	}
	cost := [][]float64{{1}, {1, 1}, {1, 1}}
	s := newSim(t, simpleEnv(quality, cost), &RoundRobinPicker{}, UCBModelPicker{}, false)
	var order []int
	for {
		ok, err := s.Step()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		order = append(order, s.Trace()[len(s.Trace())-1].User)
	}
	want := []int{0, 1, 2, 1, 2}
	if len(order) != len(want) {
		t.Fatalf("served %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("served %v, want %v", order, want)
		}
	}
	if !s.Done() {
		t.Error("simulation not done after exhausting all tenants")
	}
}

func TestRandomPickerOnlyActive(t *testing.T) {
	quality := [][]float64{{0.5}, {0.4, 0.6}}
	cost := [][]float64{{1}, {1, 1}}
	env := simpleEnv(quality, cost)
	s := newSim(t, env, &RandomPicker{Rng: rand.New(rand.NewSource(3))}, UCBModelPicker{}, false)
	for i := 0; i < 3; i++ {
		ok, err := s.Step()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("stopped early at step %d", i)
		}
	}
	if !s.Done() {
		t.Error("should be done after 3 steps")
	}
}

func TestMostCitedMostRecentOrder(t *testing.T) {
	models := []dataset.ModelInfo{
		{Name: "a", Citations: 100, Year: 2016},
		{Name: "b", Citations: 900, Year: 2012},
		{Name: "c", Citations: 500, Year: 2014},
	}
	cited := MostCitedPicker(models)
	if cited.Order[0] != 1 || cited.Order[1] != 2 || cited.Order[2] != 0 {
		t.Errorf("most-cited order %v", cited.Order)
	}
	recent := MostRecentPicker(models)
	if recent.Order[0] != 0 || recent.Order[1] != 2 || recent.Order[2] != 1 {
		t.Errorf("most-recent order %v", recent.Order)
	}
}

func TestFixedOrderPickerSkipsTried(t *testing.T) {
	quality := [][]float64{{0.2, 0.9, 0.5}}
	cost := unitCostMatrix(1, 3)
	picker := &FixedOrderModelPicker{Label: "fixed", Order: []int{1, 0, 2}}
	s := newSim(t, simpleEnv(quality, cost), FCFSPicker{}, picker, false)
	if _, err := s.RunSteps(3); err != nil {
		t.Fatal(err)
	}
	tr := s.Trace()
	if tr[0].Arm != 1 || tr[1].Arm != 0 || tr[2].Arm != 2 {
		t.Errorf("arms played: %d,%d,%d want 1,0,2", tr[0].Arm, tr[1].Arm, tr[2].Arm)
	}
	if arm, _ := picker.Pick(s.Tenants[0]); arm != -1 {
		t.Errorf("exhausted picker returned arm %d", arm)
	}
}

func TestGreedyInitialSweepServesEveryone(t *testing.T) {
	n, k := 4, 5
	rng := rand.New(rand.NewSource(7))
	quality := make([][]float64, n)
	for i := range quality {
		quality[i] = make([]float64, k)
		for j := range quality[i] {
			quality[i][j] = rng.Float64()
		}
	}
	s := newSim(t, simpleEnv(quality, unitCostMatrix(n, k)), &GreedyPicker{}, UCBModelPicker{}, false)
	if _, err := s.RunSteps(n); err != nil {
		t.Fatal(err)
	}
	served := map[int]bool{}
	for _, tp := range s.Trace() {
		served[tp.User] = true
	}
	if len(served) != n {
		t.Errorf("greedy served %d distinct users in first %d rounds, want all %d", len(served), n, n)
	}
}

// Deterministic check of Algorithm 2's user-picking phase: the candidate set
// Vt = {i : σ̃_i ≥ mean(σ̃)} filters out users with small empirical variance,
// and ease.ml's max-gap rule chooses within Vt.
func TestGreedyCandidateSetAndMaxGap(t *testing.T) {
	// Three tenants with identical 2-arm bandits (identity prior ⇒ equal
	// MaxUCB at equal local time) whose σ̃ and best accuracy we control via
	// RecordObservation(B, y): σ̃ = B − y on the first serve.
	quality := [][]float64{{0.5, 0.5}, {0.5, 0.5}, {0.5, 0.5}}
	s := newSim(t, simpleEnv(quality, unitCostMatrix(3, 2)), &GreedyPicker{}, UCBModelPicker{}, false)
	serve := func(i int, b, y float64) {
		s.Tenants[i].Bandit.Observe(0, y)
		s.Tenants[i].RecordObservation(b, y)
	}
	serve(0, 1.0, 0.50) // σ̃ = 0.50, bestY = 0.50 → large gap
	serve(1, 1.0, 0.40) // σ̃ = 0.60, bestY = 0.40 → larger gap, candidate
	serve(2, 1.0, 0.99) // σ̃ = 0.01, bestY = 0.99 → below-average, filtered

	picker := &GreedyPicker{}
	got := picker.Pick(s.Tenants)
	// avg σ̃ = 0.37 ⇒ candidates {0, 1}; tenant 1 has the larger gap
	// (same MaxUCB, lower best accuracy).
	if got != 1 {
		t.Errorf("greedy picked tenant %d, want 1", got)
	}
	wantCandidates := []int{0, 1}
	if len(picker.lastCandidates) != 2 || picker.lastCandidates[0] != wantCandidates[0] || picker.lastCandidates[1] != wantCandidates[1] {
		t.Errorf("candidate set %v, want %v", picker.lastCandidates, wantCandidates)
	}
}

// Over a full horizon GREEDY must spend no more serves on a saturated user
// than ROUNDROBIN would before the point where the improving user is
// exhausted; statistically it should funnel the early budget to the user
// with room to improve (§4.2 practical considerations).
func TestGreedyPrefersUserWithPotential(t *testing.T) {
	k := 12
	saturated := make([]float64, k)
	improving := make([]float64, k)
	for j := 0; j < k; j++ {
		saturated[j] = 0.985 + 0.005*float64(j%3)/3
		improving[j] = 0.30 + 0.05*float64(j)
	}
	quality := [][]float64{saturated, improving}
	greedyServes := func() (sat, imp int) {
		s := newSim(t, simpleEnv(quality, unitCostMatrix(2, k)), &GreedyPicker{}, UCBModelPicker{}, false)
		if _, err := s.RunSteps(0); err != nil {
			t.Fatal(err)
		}
		// Count serves until the improving user reaches within 0.01 of its
		// optimum: the faster that happens, the better the allocation.
		for _, tp := range s.Trace() {
			if tp.User == 0 {
				sat++
			} else {
				imp++
			}
			if tp.User == 1 && tp.Reward >= 0.84 {
				break
			}
		}
		return sat, imp
	}
	sat, imp := greedyServes()
	if sat > imp+k/2 {
		t.Errorf("greedy burned %d serves on the saturated user before solving the improving one (%d serves)", sat, imp)
	}
}

func TestHybridFreezesToRoundRobin(t *testing.T) {
	// One long flat workload plus two short ones: once the short tenants
	// are exhausted the candidate set pins to the flat tenant, whose best
	// quality stops improving after its first serve — the freezing stage
	// of §4.4. HYBRID must detect it within S picks and keep scheduling
	// correctly afterwards.
	k := 40
	flat := make([]float64, k)
	for j := range flat {
		flat[j] = 0.5
	}
	quality := [][]float64{flat, {0.9, 0.8, 0.7}, {0.85, 0.8, 0.75}}
	cost := [][]float64{unitCostMatrix(1, k)[0], {1, 1, 1}, {1, 1, 1}}
	h := &HybridPicker{S: 5}
	s := newSim(t, simpleEnv(quality, cost), h, UCBModelPicker{}, false)
	if _, err := s.RunSteps(30); err != nil {
		t.Fatal(err)
	}
	if !h.Frozen() {
		t.Error("hybrid did not freeze on a saturated workload")
	}
	// After freezing it must keep making valid picks until exhaustion.
	if _, err := s.RunSteps(0); err != nil {
		t.Fatal(err)
	}
	if !s.Done() {
		t.Error("hybrid did not finish the workload after freezing")
	}
}

// A lease batch makes many picks with no observation in between. HYBRID's
// freeze window counts rounds — a pick followed by an observed result — so
// the picks of a batch must neither advance nor reset it, or a single batch
// would latch the picker into round-robin before training starts.
func TestPickWorkDoesNotFreezeHybrid(t *testing.T) {
	freezeRound := func(batch int) int {
		var tenants []*Tenant
		for i := 0; i < 4; i++ {
			tenants = append(tenants, newClassTenant(i, "standard", 2, 80))
		}
		h := NewHybridPicker()
		for round := 0; round < 300; round++ {
			idx := h.Pick(tenants)
			for i := 0; i < batch; i++ {
				h.Pick(tenants)
			}
			step(t, tenants[idx], 0.5)
			if h.Frozen() {
				return round
			}
		}
		return -1
	}
	alone := freezeRound(0)
	if alone < 0 {
		t.Fatal("constant-reward rounds never froze HYBRID")
	}
	if batched := freezeRound(2 * NewHybridPicker().S); batched != alone {
		t.Fatalf("with a lease batch per round HYBRID froze at round %d, without at round %d", batched, alone)
	}
}

func TestHybridDefaultWindow(t *testing.T) {
	if NewHybridPicker().S != 10 {
		t.Errorf("default freeze window = %d, want the paper's s=10", NewHybridPicker().S)
	}
}

func TestSimulationBudgets(t *testing.T) {
	d := dataset.DeepLearning()
	env := NewMatrixEnv(d, []int{0, 1, 2})
	features := d.QualityVectors([]int{3, 4, 5, 6})
	s, err := NewSimulation(SimConfig{
		Env:         env,
		UserPicker:  &RoundRobinPicker{},
		ModelPicker: UCBModelPicker{},
		Kernel:      gp.RBF{Variance: 0.05, LengthScale: 0.5},
		Features:    features,
		CostAware:   true,
		PriorMean:   0.6,
	})
	if err != nil {
		t.Fatal(err)
	}
	budget := env.TotalCost() * 0.3
	if _, err := s.RunBudget(budget); err != nil {
		t.Fatal(err)
	}
	if s.CumulativeCost() < budget {
		t.Errorf("stopped at cost %g before exhausting budget %g", s.CumulativeCost(), budget)
	}
	// The overshoot is at most one model's cost.
	maxCost := 0.0
	for i := 0; i < env.NumUsers(); i++ {
		for j := 0; j < env.NumModels(i); j++ {
			if c := env.Cost(i, j); c > maxCost {
				maxCost = c
			}
		}
	}
	if s.CumulativeCost() > budget+maxCost {
		t.Errorf("overshot budget by more than one run: %g > %g+%g", s.CumulativeCost(), budget, maxCost)
	}
}

func TestSimulationLossMonotonicallyDecreases(t *testing.T) {
	d := dataset.DeepLearning()
	env := NewMatrixEnv(d, []int{0, 1, 2, 3})
	features := d.QualityVectors([]int{5, 6, 7, 8, 9})
	s, err := NewSimulation(SimConfig{
		Env:         env,
		UserPicker:  NewHybridPicker(),
		ModelPicker: UCBModelPicker{},
		Kernel:      gp.RBF{Variance: 0.05, LengthScale: 0.5},
		Features:    features,
		PriorMean:   0.6,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.RunSteps(0); err != nil {
		t.Fatal(err)
	}
	prev := math.Inf(1)
	for _, tp := range s.Trace() {
		if tp.AvgLoss > prev+1e-12 {
			t.Fatalf("avg loss increased at step %d: %g > %g", tp.Step, tp.AvgLoss, prev)
		}
		prev = tp.AvgLoss
	}
	if final := s.AvgLoss(); final > 1e-12 {
		t.Errorf("final loss %g after exhausting all models, want 0", final)
	}
}

func TestNewSimulationValidation(t *testing.T) {
	env := simpleEnv([][]float64{{0.5}}, [][]float64{{1}})
	cases := map[string]SimConfig{
		"missing env":    {UserPicker: FCFSPicker{}, ModelPicker: UCBModelPicker{}, Kernel: gp.RBF{Variance: 1, LengthScale: 1}},
		"missing picker": {Env: env, ModelPicker: UCBModelPicker{}, Kernel: gp.RBF{Variance: 1, LengthScale: 1}},
		"missing kernel": {Env: env, UserPicker: FCFSPicker{}, ModelPicker: UCBModelPicker{}},
		"short features": {Env: env, UserPicker: FCFSPicker{}, ModelPicker: UCBModelPicker{}, Kernel: gp.RBF{Variance: 1, LengthScale: 1}, Features: nil},
	}
	for name, cfg := range cases {
		if _, err := NewSimulation(cfg); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestTenantSigmaTildeRecurrence(t *testing.T) {
	quality := [][]float64{{0.3, 0.8, 0.5, 0.6}}
	s := newSim(t, simpleEnv(quality, unitCostMatrix(1, 4)), FCFSPicker{}, UCBModelPicker{}, false)
	tenant := s.Tenants[0]
	if !math.IsInf(tenant.SigmaTilde(), 1) {
		t.Error("unserved tenant should have infinite σ̃")
	}
	prevBound := math.Inf(1)
	for i := 0; i < 4; i++ {
		ok, err := s.Step()
		if err != nil || !ok {
			t.Fatalf("step %d: ok=%v err=%v", i, ok, err)
		}
		// empBound is non-increasing, and σ̃ = empBound − y_latest.
		tp := s.Trace()[len(s.Trace())-1]
		bound := tenant.sigmaTilde + tp.Reward
		if bound > prevBound+1e-9 {
			t.Fatalf("empirical bound increased: %g > %g", bound, prevBound)
		}
		prevBound = bound
	}
}

// Property: for any picker combination, the simulation trains each
// (user,arm) pair at most once and the trace cost accounting is exact.
func TestQuickSimulationAccounting(t *testing.T) {
	pickers := []func(*rand.Rand) UserPicker{
		func(*rand.Rand) UserPicker { return FCFSPicker{} },
		func(*rand.Rand) UserPicker { return &RoundRobinPicker{} },
		func(r *rand.Rand) UserPicker { return &RandomPicker{Rng: r} },
		func(*rand.Rand) UserPicker { return &GreedyPicker{} },
		func(*rand.Rand) UserPicker { return NewHybridPicker() },
		func(*rand.Rand) UserPicker { return &WeightedGreedyPicker{Weights: []float64{2, 1, 3}} },
		func(*rand.Rand) UserPicker {
			return &GuaranteedServicePicker{Inner: &GreedyPicker{}, Window: 2}
		},
	}
	f := func(seed int64, pickerRaw, nRaw, kRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw%4) + 1
		k := int(kRaw%5) + 1
		quality := make([][]float64, n)
		cost := make([][]float64, n)
		for i := range quality {
			quality[i] = make([]float64, k)
			cost[i] = make([]float64, k)
			for j := range quality[i] {
				quality[i][j] = rng.Float64()
				cost[i][j] = 0.1 + rng.Float64()
			}
		}
		env := simpleEnv(quality, cost)
		up := pickers[int(pickerRaw)%len(pickers)](rng)
		s, err := NewSimulation(SimConfig{
			Env: env, UserPicker: up, ModelPicker: UCBModelPicker{},
			Kernel: gp.RBF{Variance: 0.05, LengthScale: 0.3}, Features: lineFeatures(k),
			PriorMean: 0.5, CostAware: seed%2 == 0,
		})
		if err != nil {
			return false
		}
		if _, err := s.RunSteps(0); err != nil {
			return false
		}
		if s.Steps() != n*k {
			return false
		}
		var wantCost float64
		seen := map[[2]int]bool{}
		for _, tp := range s.Trace() {
			key := [2]int{tp.User, tp.Arm}
			if seen[key] {
				return false
			}
			seen[key] = true
			wantCost += tp.Cost
		}
		return math.Abs(wantCost-s.CumulativeCost()) < 1e-9 && s.AvgLoss() < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func BenchmarkSimulationStepGreedy(b *testing.B) {
	d := dataset.Syn(0.5, 1.0)
	rng := rand.New(rand.NewSource(1))
	train, test := d.Split(10, rng)
	env := NewMatrixEnv(d, test)
	features := d.QualityVectors(train[:20])
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := NewSimulation(SimConfig{
			Env: env, UserPicker: &GreedyPicker{}, ModelPicker: UCBModelPicker{},
			Kernel: gp.RBF{Variance: 0.05, LengthScale: 0.5}, Features: features,
			PriorMean: 0.5,
		})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.RunSteps(50); err != nil {
			b.Fatal(err)
		}
	}
}
