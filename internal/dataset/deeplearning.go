package dataset

import (
	"fmt"
	"math/rand"
)

// cnnArch captures the 2017-era facts about each of the eight architectures
// that ease.ml matched against image-classification jobs (§2 Fig. 4, §5.1).
//
// Strength is a relative accuracy prior calibrated to published ImageNet-era
// orderings (ResNet-50 > VGG-16 ≈ GoogLeNet ≈ ResNet-18 > BN-AlexNet > NIN >
// AlexNet ≈ SqueezeNet). GFLOPs drives the cost model (forward+backward cost
// per image), which reproduces the heavy-tailed cost spread of Figure 11's
// DEEPLEARNING cost distribution (VGG-16 ≫ SqueezeNet).
type cnnArch struct {
	name      string
	citations int // Google-Scholar snapshot circa 2017, drives MOSTCITED
	year      int // publication year, drives MOSTRECENT
	strength  float64
	gflops    float64
}

// deepLearningArchs lists the eight candidate networks of §5.1 in the order
// the paper names them.
var deepLearningArchs = []cnnArch{
	{name: "NIN", citations: 1500, year: 2013, strength: 0.62, gflops: 1.1},
	{name: "GoogLeNet", citations: 5700, year: 2014, strength: 0.70, gflops: 1.6},
	{name: "ResNet-50", citations: 5900, year: 2015, strength: 0.75, gflops: 3.9},
	{name: "AlexNet", citations: 14000, year: 2012, strength: 0.57, gflops: 0.72},
	{name: "BN-AlexNet", citations: 4000, year: 2015, strength: 0.60, gflops: 0.75},
	{name: "ResNet-18", citations: 5900, year: 2015, strength: 0.70, gflops: 1.8},
	{name: "VGG-16", citations: 6700, year: 2014, strength: 0.71, gflops: 15.5},
	{name: "SqueezeNet", citations: 600, year: 2016, strength: 0.58, gflops: 0.78},
}

// deepLearningSeed fixes the facsimile: the "real" log is one deterministic
// draw, exactly as the paper's DEEPLEARNING log is one fixed dataset.
const deepLearningSeed = 20170824 // arXiv submission date of the paper

// DeepLearning returns the facsimile of the paper's DEEPLEARNING dataset:
// 22 users (image-classification tasks of the ETH research groups) × 8 CNN
// architectures, with correlated real-shaped qualities and real-shaped costs.
//
// Substitution note (DESIGN.md §3): the paper's log of real training runs is
// not public; this facsimile preserves the two properties the scheduler
// experiments depend on — strong model-quality correlation across users, and
// a cost spread of more than an order of magnitude dominated by VGG-16.
func DeepLearning() *Dataset {
	rng := rand.New(rand.NewSource(deepLearningSeed))
	const numUsers = 22
	d := &Dataset{Name: "DEEPLEARNING"}
	for _, a := range deepLearningArchs {
		d.Models = append(d.Models, ModelInfo{Name: a.name, Citations: a.citations, Year: a.year})
	}
	for i := 0; i < numUsers; i++ {
		d.Users = append(d.Users, fmt.Sprintf("task-%02d", i))
	}

	d.Quality = make([][]float64, numUsers)
	d.Cost = make([][]float64, numUsers)
	for i := 0; i < numUsers; i++ {
		// Task difficulty: how far above/below the architecture prior this
		// task sits. A few tasks are nearly solved (the 0.99-accuracy user of
		// the paper's "Failed Experience 2"), some are hard.
		difficulty := 0.05 + float64(0.30*rng.Float64()) // subtracted from strength
		easyBoost := 0.0
		if rng.Float64() < 0.2 {
			easyBoost = 0.30 // near-saturated tasks
		}
		// Per-task sensitivity to model choice: some tasks barely
		// distinguish architectures, others spread them widely.
		spread := 0.5 + float64(1.2*rng.Float64())
		// Dataset size factor scales training time for every model.
		// The conversion rounds the product inside the inlined Float64,
		// which arm64 would otherwise fuse into the x+x that 2.0*x becomes.
		sizeFactor := 0.3 + 2.0*float64(rng.Float64())

		qRow := make([]float64, len(deepLearningArchs))
		cRow := make([]float64, len(deepLearningArchs))
		for j, a := range deepLearningArchs {
			q := float64(a.strength*spread) - float64((spread-1)*0.66) - difficulty + easyBoost + float64(0.02*rng.NormFloat64())
			if q < 0.02 {
				q = 0.02 + float64(0.01*rng.Float64())
			}
			if q > 0.995 {
				q = 0.995
			}
			qRow[j] = q
			// Cost: GFLOPs × dataset size × (4 learning rates × 100 epochs,
			// constant factor absorbed) with mild run-to-run jitter.
			c := a.gflops * sizeFactor * (0.9 + float64(0.2*rng.Float64()))
			cRow[j] = c
		}
		d.Quality[i] = qRow
		d.Cost[i] = cRow
	}
	return d
}
