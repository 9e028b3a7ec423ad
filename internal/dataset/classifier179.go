package dataset

import (
	"fmt"
	"math/rand"
)

// classifierFamily describes one family of classical classifiers from the
// Delgado et al. benchmark ("Do we need hundreds of classifiers…?", JMLR
// 2014) that the paper's 179CLASSIFIER dataset is drawn from. Families
// reproduce the published structure: 179 classifiers in ~17 families, with
// random-forest variants strongest on average, followed by SVMs and neural
// networks, and with strong within-family quality correlation.
type classifierFamily struct {
	name     string
	count    int     // number of member classifiers (sums to 179)
	strength float64 // mean accuracy offset of the family
	withinSD float64 // within-family spread
}

var classifier179Families = []classifierFamily{
	{name: "random-forest", count: 8, strength: 0.08, withinSD: 0.015},
	{name: "svm", count: 10, strength: 0.06, withinSD: 0.025},
	{name: "neural-net", count: 11, strength: 0.05, withinSD: 0.030},
	{name: "boosting", count: 20, strength: 0.04, withinSD: 0.030},
	{name: "bagging", count: 24, strength: 0.03, withinSD: 0.025},
	{name: "decision-tree", count: 14, strength: 0.00, withinSD: 0.030},
	{name: "rule-based", count: 12, strength: -0.02, withinSD: 0.035},
	{name: "discriminant", count: 20, strength: 0.01, withinSD: 0.030},
	{name: "nearest-neighbour", count: 5, strength: 0.02, withinSD: 0.020},
	{name: "partial-least-squares", count: 6, strength: -0.01, withinSD: 0.025},
	{name: "logistic-multinomial", count: 3, strength: 0.00, withinSD: 0.015},
	{name: "multivariate-adaptive", count: 2, strength: -0.01, withinSD: 0.015},
	{name: "generalized-linear", count: 5, strength: -0.03, withinSD: 0.030},
	{name: "naive-bayes", count: 2, strength: -0.05, withinSD: 0.020},
	{name: "other-ensemble", count: 11, strength: 0.03, withinSD: 0.030},
	{name: "other-method", count: 10, strength: -0.04, withinSD: 0.045},
	{name: "stacking", count: 2, strength: 0.01, withinSD: 0.015},
	{name: "bayesian", count: 6, strength: -0.02, withinSD: 0.030},
	{name: "plsr-variants", count: 8, strength: -0.03, withinSD: 0.035},
}

const classifier179Seed = 2014 // Delgado et al. publication year

// Classifier179 returns the facsimile of the paper's 179CLASSIFIER dataset:
// 121 users (UCI datasets) × 179 classical classifiers. Qualities follow the
// Delgado et al. family structure; costs are synthetic U(0,1) exactly as in
// the paper ("we generate synthetic costs from the uniform distribution
// U(0,1)").
func Classifier179() *Dataset {
	rng := rand.New(rand.NewSource(classifier179Seed))
	const numUsers = 121
	d := &Dataset{Name: "179CLASSIFIER"}

	total := 0
	for _, f := range classifier179Families {
		total += f.count
	}
	if total != 179 {
		panic(fmt.Sprintf("dataset: classifier families sum to %d, want 179", total))
	}

	// Per-classifier skill offset: family strength plus a fixed
	// within-family deviation (fixed across users ⇒ correlated columns).
	type clf struct {
		family int
		skill  float64
	}
	clfs := make([]clf, 0, total)
	for fi, f := range classifier179Families {
		for c := 0; c < f.count; c++ {
			name := fmt.Sprintf("%s-%d", f.name, c+1)
			d.Models = append(d.Models, ModelInfo{
				Name:      name,
				Citations: 100 + rng.Intn(5000),
				Year:      1990 + rng.Intn(24),
			})
			clfs = append(clfs, clf{family: fi, skill: f.strength + float64(f.withinSD*rng.NormFloat64())})
		}
	}

	for i := 0; i < numUsers; i++ {
		d.Users = append(d.Users, fmt.Sprintf("uci-%03d", i))
	}
	d.Quality = make([][]float64, numUsers)
	d.Cost = make([][]float64, numUsers)
	for i := 0; i < numUsers; i++ {
		// UCI task difficulty: the benchmark's accuracies span roughly
		// [0.3, 0.99] across datasets.
		base := 0.45 + float64(0.45*rng.Float64())
		// Per-task family affinity: some tasks favour particular families
		// (e.g. linear methods on linearly separable data), which keeps the
		// correlation imperfect as in the real benchmark.
		affinity := make([]float64, len(classifier179Families))
		for fi := range affinity {
			affinity[fi] = 0.05 * rng.NormFloat64()
		}
		qRow := make([]float64, total)
		cRow := make([]float64, total)
		for j, c := range clfs {
			q := base + c.skill + affinity[c.family] + float64(0.035*rng.NormFloat64())
			if q < 0.01 {
				q = 0.01
			}
			if q > 0.99 {
				q = 0.99
			}
			qRow[j] = q
			cost := rng.Float64()
			for cost < 1e-6 {
				cost = rng.Float64()
			}
			cRow[j] = cost
		}
		d.Quality[i] = qRow
		d.Cost[i] = cRow
	}
	return d
}
