// Package dataset defines the benchmark-dataset abstraction of the paper's
// §5.1 (Figure 8): a matrix of (quality, cost) measurements per (user, model)
// pair, together with model metadata (citation counts and publication years
// used by the MOSTCITED / MOSTRECENT baselines), train/test splitting, and
// the quality-vector kernel-feature construction of Appendix A.
package dataset

import (
	"fmt"
	"math/rand"
)

// ModelInfo carries per-model metadata. Citations and Year drive the
// MOSTCITED and MOSTRECENT user heuristics of §5.2.
type ModelInfo struct {
	Name      string
	Citations int // Google-Scholar citation count (2017 snapshot for DEEPLEARNING)
	Year      int // publication year
}

// Dataset is a benchmark dataset: for every (user, model) pair it records the
// achievable quality (accuracy in [0,1]) and the execution cost (training
// time in arbitrary units, > 0).
type Dataset struct {
	Name    string
	Users   []string
	Models  []ModelInfo
	Quality [][]float64 // Quality[user][model]
	Cost    [][]float64 // Cost[user][model]
}

// NumUsers returns the number of users (rows).
func (d *Dataset) NumUsers() int { return len(d.Users) }

// NumModels returns the number of candidate models (columns).
func (d *Dataset) NumModels() int { return len(d.Models) }

// BestQuality returns µ*_i: the best achievable quality for user i.
func (d *Dataset) BestQuality(user int) float64 {
	best := d.Quality[user][0]
	for _, q := range d.Quality[user][1:] {
		if q > best {
			best = q
		}
	}
	return best
}

// TotalCost returns the summed cost of training every model for every listed
// user (the denominator of the paper's "% of total cost" axis). If users is
// nil, all users are included.
func (d *Dataset) TotalCost(users []int) float64 {
	var total float64
	if users == nil {
		for i := range d.Cost {
			for _, c := range d.Cost[i] {
				total += c
			}
		}
		return total
	}
	for _, i := range users {
		for _, c := range d.Cost[i] {
			total += c
		}
	}
	return total
}

// Split partitions the users into a random test set of size testCount and a
// training set with the remainder, following the protocol of §5.2 ("randomly
// sample ten users as a testing set and the rest of the users as a training
// set"). It panics if testCount is out of range.
func (d *Dataset) Split(testCount int, rng *rand.Rand) (train, test []int) {
	n := d.NumUsers()
	if testCount <= 0 || testCount >= n {
		panic(fmt.Sprintf("dataset %q: testCount %d out of range (0,%d)", d.Name, testCount, n))
	}
	perm := rng.Perm(n)
	test = append([]int{}, perm[:testCount]...)
	train = append([]int{}, perm[testCount:]...)
	return train, test
}

// QualityVectors returns the kernel feature vector of each model: its quality
// on every training user (Appendix A: "we first evaluate the model on each
// user in the training set … and pack these qualities into a quality vector
// indexed by the users"). The result is indexed [model][trainUser].
func (d *Dataset) QualityVectors(trainUsers []int) [][]float64 {
	k := d.NumModels()
	features := make([][]float64, k)
	for j := 0; j < k; j++ {
		v := make([]float64, len(trainUsers))
		for t, u := range trainUsers {
			v[t] = d.Quality[u][j]
		}
		features[j] = v
	}
	return features
}

// Subset returns a new dataset restricted to the given user rows (columns are
// unchanged). The quality/cost rows are deep-copied.
func (d *Dataset) Subset(users []int) *Dataset {
	sub := &Dataset{
		Name:   d.Name,
		Models: d.Models,
		Users:  make([]string, len(users)),
	}
	for idx, u := range users {
		sub.Users[idx] = d.Users[u]
		q := make([]float64, d.NumModels())
		copy(q, d.Quality[u])
		c := make([]float64, d.NumModels())
		copy(c, d.Cost[u])
		sub.Quality = append(sub.Quality, q)
		sub.Cost = append(sub.Cost, c)
	}
	return sub
}

// Stats summarizes a dataset for the Figure 8 table.
type Stats struct {
	Name        string
	NumUsers    int
	NumModels   int
	QualityKind string // "Real" or "Synthetic" (facsimile provenance)
	CostKind    string
	MinQuality  float64
	MaxQuality  float64
	MeanQuality float64
	MinCost     float64
	MaxCost     float64
	MeanCost    float64
}

// ComputeStats derives summary statistics; qualityKind and costKind label the
// provenance shown in Figure 8.
func (d *Dataset) ComputeStats(qualityKind, costKind string) Stats {
	s := Stats{
		Name: d.Name, NumUsers: d.NumUsers(), NumModels: d.NumModels(),
		QualityKind: qualityKind, CostKind: costKind,
		MinQuality: 1, MinCost: d.Cost[0][0],
	}
	var qSum, cSum float64
	var count float64
	for i := range d.Quality {
		for j := range d.Quality[i] {
			q, c := d.Quality[i][j], d.Cost[i][j]
			qSum += q
			cSum += c
			count++
			if q < s.MinQuality {
				s.MinQuality = q
			}
			if q > s.MaxQuality {
				s.MaxQuality = q
			}
			if c < s.MinCost {
				s.MinCost = c
			}
			if c > s.MaxCost {
				s.MaxCost = c
			}
		}
	}
	s.MeanQuality = qSum / count
	s.MeanCost = cSum / count
	return s
}
