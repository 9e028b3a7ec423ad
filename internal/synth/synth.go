// Package synth implements the synthetic data generator of the paper's
// Appendix B. The quality of model j for user i decomposes as
//
//	x[i,j] = b_i + m_j + u_i + ε_{i,j}            (Appendix B, eq. 4)
//
// where b_i is the user's baseline quality (task difficulty), m_j is the
// model-correlation fluctuation, u_i the user-correlation fluctuation and
// ε white noise. Values are clamped to [0, 1].
//
// The main text's two-parameter family SYN(σM, α) (§5.1) is the special case
// x[i,j] = b_i + α·m_j that Dataset generates via Config; the full
// group-structured model of Appendix B is exposed through Generator.
package synth

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/linalg"
)

// BaselineGroup parameterizes the distribution of user baseline qualities:
// b ~ N(Mu, Sigma²) (Appendix B.1.1).
type BaselineGroup struct {
	Mu    float64 // expected quality of tasks in this group
	Sigma float64 // within-group variation
}

// ModelGroup parameterizes a group of models whose quality fluctuations are
// correlated through hidden similarity scores f(j) ~ U(0,1) and the
// covariance ΣM[i,j] = exp(−(f(i)−f(j))²/σM²) (Appendix B.1.2).
type ModelGroup struct {
	SigmaM float64 // correlation strength: larger ⇒ stronger correlation
	Count  int     // number of models in this group
}

// UserGroup parameterizes a group of users with correlated fluctuations,
// generated identically to a model group (Appendix B.1.3).
type UserGroup struct {
	SigmaU float64
	Count  int
}

// Generator describes a full Appendix-B synthetic dataset:
// baseline groups × user groups (via PU), model groups (via PM) and i.i.d.
// white noise.
type Generator struct {
	Baselines   []BaselineGroup
	ModelGroups []ModelGroup
	UserGroups  []UserGroup
	SigmaW      float64 // white-noise standard deviation

	// Alpha scales the model-correlation term m_j, as in the main text's
	// SYN(σM, α) datasets. Zero means "no model term"; use 1 for the pure
	// Appendix-B model.
	Alpha float64

	// UserAlpha scales the user-correlation term u_i. The main-text SYN
	// datasets use 0.
	UserAlpha float64

	// PerUserModelDraw controls whether the model fluctuation vector m is
	// redrawn per user ("We sample for each user i: [m1..mK] ~ N(0,ΣM)",
	// §5.1) or drawn once and shared. The paper's §5.1 text redraws per
	// user; Appendix B's eq. 4 shares one draw. Both are supported.
	PerUserModelDraw bool
}

// Quality is a generated quality matrix together with the latent factors
// that produced it, useful for tests and diagnostics.
type Quality struct {
	X         [][]float64 // X[user][model] ∈ [0,1]
	Baselines []float64   // b_i per user
	ModelF    []float64   // hidden similarity scores f(j) per model
	NumUsers  int
	NumModels int
}

// Generate draws one dataset using the given random source.
func (g *Generator) Generate(rng *rand.Rand) (*Quality, error) {
	numModels := 0
	for _, mg := range g.ModelGroups {
		if mg.Count <= 0 {
			return nil, fmt.Errorf("synth: model group with non-positive count %d", mg.Count)
		}
		numModels += mg.Count
	}
	numUsers := 0
	for _, ug := range g.UserGroups {
		if ug.Count <= 0 {
			return nil, fmt.Errorf("synth: user group with non-positive count %d", ug.Count)
		}
		numUsers += ug.Count
	}
	if numModels == 0 || numUsers == 0 {
		return nil, fmt.Errorf("synth: need at least one model group and one user group")
	}
	if len(g.Baselines) == 0 {
		return nil, fmt.Errorf("synth: need at least one baseline group")
	}

	q := &Quality{
		NumUsers:  numUsers,
		NumModels: numModels,
		X:         make([][]float64, numUsers),
		Baselines: make([]float64, numUsers),
		ModelF:    make([]float64, 0, numModels),
	}

	// Baseline per user: users are spread across baseline groups round-robin
	// so every (baseline, user) group combination is populated, mirroring
	// Appendix B.2's pU mapping with equal counts.
	for i := 0; i < numUsers; i++ {
		bg := g.Baselines[i%len(g.Baselines)]
		q.Baselines[i] = bg.Mu + float64(bg.Sigma*rng.NormFloat64())
	}

	// Model hidden-similarity scores and per-group covariance Cholesky
	// factors, drawn once.
	type groupFactor struct {
		start int
		count int
		chol  *linalg.Cholesky
	}
	var modelFactors []groupFactor
	start := 0
	for _, mg := range g.ModelGroups {
		f := make([]float64, mg.Count)
		for j := range f {
			f[j] = rng.Float64()
		}
		q.ModelF = append(q.ModelF, f...)
		cov := SimilarityCovariance(f, mg.SigmaM)
		ch, _, err := linalg.NewCholeskyJittered(cov, 1e-10, 12)
		if err != nil {
			return nil, fmt.Errorf("synth: model covariance: %w", err)
		}
		modelFactors = append(modelFactors, groupFactor{start: start, count: mg.Count, chol: ch})
		start += mg.Count
	}

	// User-correlation draws u_i (one per user, shared across models).
	u := make([]float64, numUsers)
	if g.UserAlpha != 0 {
		start = 0
		for _, ug := range g.UserGroups {
			f := make([]float64, ug.Count)
			for j := range f {
				f[j] = rng.Float64()
			}
			cov := SimilarityCovariance(f, ug.SigmaU)
			ch, _, err := linalg.NewCholeskyJittered(cov, 1e-10, 12)
			if err != nil {
				return nil, fmt.Errorf("synth: user covariance: %w", err)
			}
			draw := sampleMVN(rng, ch)
			copy(u[start:start+ug.Count], draw)
			start += ug.Count
		}
	}

	// Shared model draw when not redrawing per user.
	shared := make([]float64, numModels)
	if !g.PerUserModelDraw {
		for _, gf := range modelFactors {
			copy(shared[gf.start:gf.start+gf.count], sampleMVN(rng, gf.chol))
		}
	}

	for i := 0; i < numUsers; i++ {
		m := shared
		if g.PerUserModelDraw {
			m = make([]float64, numModels)
			for _, gf := range modelFactors {
				copy(m[gf.start:gf.start+gf.count], sampleMVN(rng, gf.chol))
			}
		}
		row := make([]float64, numModels)
		for j := 0; j < numModels; j++ {
			v := q.Baselines[i] + float64(g.Alpha*m[j]) + float64(g.UserAlpha*u[i]) + float64(g.SigmaW*rng.NormFloat64())
			row[j] = clamp01(v)
		}
		q.X[i] = row
	}
	return q, nil
}

// SimilarityCovariance builds the covariance matrix
// Σ[i,j] = exp(−(f(i)−f(j))²/σ²) over hidden similarity scores f
// (Appendix B.1.2). σ ≤ 0 yields the identity (fully independent).
func SimilarityCovariance(f []float64, sigma float64) *linalg.Matrix {
	n := len(f)
	m := linalg.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			var v float64
			if i == j {
				v = 1
			} else if sigma > 0 {
				d := f[i] - f[j]
				v = math.Exp(-d * d / (sigma * sigma))
			}
			m.Set(i, j, v)
			m.Set(j, i, v)
		}
	}
	return m
}

// sampleMVN draws x ~ N(0, A) where chol factorizes A, via x = L·z with
// z ~ N(0, I).
func sampleMVN(rng *rand.Rand, chol *linalg.Cholesky) []float64 {
	n := chol.Size()
	z := make([]float64, n)
	for i := range z {
		z[i] = rng.NormFloat64()
	}
	return chol.L().MulVec(z)
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

// Config describes the main-text SYN(σM, α) family (§5.1): N users whose
// baselines come from the two-group instantiation of Appendix B.2
// (µ ∈ {0.75, 0.25}), M models in a single σM model group, model term scaled
// by α and redrawn per user.
type Config struct {
	NumUsers  int
	NumModels int
	SigmaM    float64 // model-correlation strength
	Alpha     float64 // weight of the model-correlation term
	SigmaB    float64 // baseline within-group std (paper's σB); default 0.05
	SigmaW    float64 // white-noise std; default 0.01
}

// Dataset generates a SYN(σM, α) quality matrix per §5.1.
func Dataset(cfg Config, rng *rand.Rand) (*Quality, error) {
	if cfg.NumUsers <= 0 || cfg.NumModels <= 0 {
		return nil, fmt.Errorf("synth: invalid size %d users × %d models", cfg.NumUsers, cfg.NumModels)
	}
	sigmaB := cfg.SigmaB
	if sigmaB == 0 {
		sigmaB = 0.05
	}
	sigmaW := cfg.SigmaW
	if sigmaW == 0 {
		sigmaW = 0.01
	}
	gen := &Generator{
		Baselines: []BaselineGroup{
			{Mu: 0.75, Sigma: sigmaB},
			{Mu: 0.25, Sigma: sigmaB},
		},
		ModelGroups:      []ModelGroup{{SigmaM: cfg.SigmaM, Count: cfg.NumModels}},
		UserGroups:       []UserGroup{{SigmaU: 0.1, Count: cfg.NumUsers}},
		SigmaW:           sigmaW,
		Alpha:            cfg.Alpha,
		UserAlpha:        0,
		PerUserModelDraw: true,
	}
	return gen.Generate(rng)
}

// UniformCosts draws a cost matrix with entries ~ U(0,1), the cost model the
// paper uses for 179CLASSIFIER and the SYN datasets. Costs are strictly
// positive (resampled away from zero) so cost-aware scores stay finite.
func UniformCosts(numUsers, numModels int, rng *rand.Rand) [][]float64 {
	c := make([][]float64, numUsers)
	for i := range c {
		row := make([]float64, numModels)
		for j := range row {
			v := rng.Float64()
			for v < 1e-6 {
				v = rng.Float64()
			}
			row[j] = v
		}
		c[i] = row
	}
	return c
}
