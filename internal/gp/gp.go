package gp

import (
	"fmt"
	"math"

	"repro/internal/linalg"
)

// GP is a Gaussian Process posterior over a finite set of K arms (candidate
// models), following Algorithm 1 of the paper. The prior has zero mean
// (Appendix A: "for GP's not conditioned on data, we assume that µ = 0") and
// covariance Σ; observations carry i.i.d. Gaussian noise of variance σ².
//
// A GP is not safe for concurrent use; each tenant owns its own instance.
type GP struct {
	prior    *linalg.Matrix // K×K prior covariance Σ
	noiseVar float64        // σ²

	arms []int     // a[1:t] — observed arm indices
	ys   []float64 // y[1:t] — observed rewards

	chol   *linalg.Cholesky // factorization of (Σt + σ²I); nil when t == 0
	alpha  []float64        // (Σt+σ²I)⁻¹ y; nil when t == 0
	jitter float64          // diagonal jitter added to keep (Σt+σ²I) PD

	// Posterior state. postZ holds the leading rows of the solved block
	// L⁻¹·B (B is the t×K cross-covariance block, row i = Σ(a_i, ·)) and
	// postRaw the running raw variance Σ(j,j) − Σᵢ zᵢ(j)² over exactly those
	// rows, unclamped. Row i of the block depends only on factor rows 0..i,
	// which Cholesky.Extend never changes, so both stay valid across every
	// observation that extended the factor: the next read appends the rows
	// observed since, O(K·t) each (refreshPosterior). Only a refactor
	// (jitter escalation) or Reset replaces the factor and drops them, and
	// the next read is then the from-row-0 case of the same loop.
	//
	// postMu/postSigma cache the surface read off that state: between
	// observations repeated Posterior calls are O(K) copies. postValid is
	// set by a read and cleared by Observe/Reset. postMu, postSigma and
	// postRaw are never mutated in place (updates allocate fresh ones) and
	// postZ only grows by appending, which is what lets Shadow share all
	// four with the base.
	postMu    []float64
	postSigma []float64
	postRaw   []float64
	postZ     []float64
	postValid bool
	postStats CacheStats
}

// CacheStats counts posterior-cache traffic: Hits and Misses tally
// Posterior calls served from / recomputing the cached surface, and
// Invalidations tallies observations (or resets) that dirtied it. Exposed
// so the selection layers above can report cache effectiveness per tenant.
type CacheStats struct {
	Hits          uint64 `json:"hits"`
	Misses        uint64 `json:"misses"`
	Invalidations uint64 `json:"invalidations"`
}

// New creates a GP over K arms with the given prior covariance and
// observation noise variance σ² (noiseVar). It panics if the prior is not
// square or noiseVar is negative.
func New(prior *linalg.Matrix, noiseVar float64) *GP {
	if prior.Rows() != prior.Cols() {
		panic(fmt.Sprintf("gp: prior covariance must be square, got %d×%d", prior.Rows(), prior.Cols()))
	}
	if noiseVar < 0 {
		panic(fmt.Sprintf("gp: negative noise variance %g", noiseVar))
	}
	return &GP{prior: prior.Clone(), noiseVar: noiseVar}
}

// NewFromFeatures creates a GP whose prior covariance is built from per-arm
// feature vectors under the given kernel (Appendix A's quality-vector
// construction).
func NewFromFeatures(k Kernel, features [][]float64, noiseVar float64) *GP {
	return New(CovarianceMatrix(k, features), noiseVar)
}

// NumArms returns K, the number of arms.
func (g *GP) NumArms() int { return g.prior.Rows() }

// NumObservations returns t, the number of observations so far.
func (g *GP) NumObservations() int { return len(g.arms) }

// NoiseVar returns the observation noise variance σ².
func (g *GP) NoiseVar() float64 { return g.noiseVar }

// PriorVar returns the prior variance Σ(k,k) of arm k.
func (g *GP) PriorVar(k int) float64 { return g.prior.At(k, k) }

// Observations returns copies of the observed arm indices and rewards.
func (g *GP) Observations() (arms []int, ys []float64) {
	arms = make([]int, len(g.arms))
	copy(arms, g.arms)
	ys = make([]float64, len(g.ys))
	copy(ys, g.ys)
	return arms, ys
}

// Observe conditions the process on reward y for arm k (Algorithm 1 line 5)
// and updates the posterior (lines 6–7). It panics if k is out of range (a
// programming error) but returns an error when the observation covariance
// is not positive semi-definite even after jitter escalation — an
// ill-conditioned prior must surface as a failure of this process, not kill
// the caller. On error the observation is rolled back and the posterior —
// surface, solved block and factor — is left exactly as before the call.
//
// The factorization of (Σt + σ²I) is extended incrementally in O(t²); a full
// refactorization with escalating jitter is the fallback when the extended
// matrix is numerically semi-definite. The (µ, σ) surface is brought up to
// date by the next read, in O(K·t) after an extension and O(K·t²) after a
// refactorization.
func (g *GP) Observe(k int, y float64) error {
	g.checkArm(k)
	if _, err := g.observe(k, y); err != nil {
		return err
	}
	g.invalidatePosterior()
	return nil
}

// checkArm panics when k is not an arm index.
func (g *GP) checkArm(k int) {
	if k < 0 || k >= g.NumArms() {
		panic(fmt.Sprintf("gp: arm %d out of range [0,%d)", k, g.NumArms()))
	}
}

// observe appends (k, y) to the history and brings the factor and the solve
// vector up to date. extended reports that the factor grew by one row, so
// the solved block is still a prefix of the new one; otherwise the factor
// was rebuilt (first observation, or jitter escalation after the extension
// hit a non-positive pivot) and the block is dropped. On error nothing has
// changed.
func (g *GP) observe(k int, y float64) (extended bool, err error) {
	t := len(g.arms)
	if g.chol != nil {
		row := make([]float64, t+1)
		for i, a := range g.arms {
			row[i] = g.prior.At(a, k)
		}
		row[t] = g.prior.At(k, k) + g.noiseVar + g.jitter
		extended = g.chol.Extend(row) == nil
	}
	g.arms = append(g.arms, k)
	g.ys = append(g.ys, y)
	if extended {
		g.alpha = g.chol.SolveVec(g.ys)
		return true, nil
	}
	if err := g.refactor(); err != nil {
		// Roll back: the failed observation must not poison later calls.
		// The previous factorization (if any) is still valid for t
		// observations, so the posterior is untouched.
		g.arms = g.arms[:t]
		g.ys = g.ys[:t]
		return false, fmt.Errorf("gp: observing arm %d: %w", k, err)
	}
	g.postZ, g.postRaw = nil, nil
	return false, nil
}

// ObserveHallucinated conditions the process on a fake observation of arm
// k at its current posterior mean — the GP-BUCB hallucination update. It
// is equivalent to Observe(k, Mean(k)) but exploits what that choice
// implies: the posterior mean surface is unchanged, and the variance
// surface shrinks by a rank-1 term that falls out of the factor row the
// incremental Cholesky extension just computed,
//
//	σ′²(j) = σ²(j) − z(j)²,   z(j) = (Σ(k,j) − L[t,:t]·Z[:,j]) / L[t,t],
//
// which is the row every read after an observation appends to the solved
// block anyway. So this is Observe followed by a read that keeps µ: O(K·t),
// and σ′ is bit for bit what a from-scratch posterior pass would produce.
// This is the hot operation behind every hallucinated batch pick. On a
// numerically semi-definite extension the factor is rebuilt with escalated
// jitter and the cached surface invalidated, exactly as in Observe —
// correctness never depends on the fast path.
func (g *GP) ObserveHallucinated(k int) error {
	g.checkArm(k)
	if len(g.arms) == 0 {
		return g.Observe(k, 0) // zero-mean prior: the hallucinated value is 0
	}
	g.freshenPosterior()
	mu := g.postMu
	extended, err := g.observe(k, mu[k])
	if err != nil {
		return err
	}
	if !extended {
		g.invalidatePosterior()
		return nil
	}
	g.refreshPosterior(mu)
	return nil
}

// Checkpoint captures the process state in O(1) for a later Rollback —
// the rollback half of the snapshot/rollback API. It records slice
// headers and the factor pointer, never copying data: every structure it
// references is immutable once built (history prefixes, solve vectors,
// cached surfaces), so restoring the headers restores the state bit for
// bit. The intended use is hallucination lookahead: checkpoint a shadow
// before each fake observation, then Rollback instead of rebuilding when
// in-flight work is handed back.
type Checkpoint struct {
	obs      int
	chol     *linalg.Cholesky
	cholSize int
	alpha    []float64
	postMu   []float64
	postSig  []float64
	postRaw  []float64
	postZ    []float64
	postOK   bool
	jitter   float64
}

// Obs returns the observation count the checkpoint was taken at.
func (cp Checkpoint) Obs() int { return cp.obs }

// Checkpoint captures the current state; see the type's documentation.
func (g *GP) Checkpoint() Checkpoint {
	size := 0
	if g.chol != nil {
		size = g.chol.Size()
	}
	return Checkpoint{
		obs:      len(g.arms),
		chol:     g.chol,
		cholSize: size,
		alpha:    g.alpha,
		postMu:   g.postMu,
		postSig:  g.postSigma,
		postRaw:  g.postRaw,
		postZ:    g.postZ,
		postOK:   g.postValid,
		jitter:   g.jitter,
	}
}

// Rollback restores the state captured by cp in O(1) (plus an O(n)
// pointer truncation inside the factor). Observations made after the
// checkpoint are discarded; the caller must not roll back past
// observations that other shadows were built on top of (the server's
// selection index only ever rolls a private shadow back to one of its own
// checkpoints). Checkpoints taken after cp become invalid.
func (g *GP) Rollback(cp Checkpoint) {
	if cp.obs > len(g.arms) {
		panic(fmt.Sprintf("gp: rollback to %d observations, have %d", cp.obs, len(g.arms)))
	}
	g.arms = g.arms[:cp.obs]
	g.ys = g.ys[:cp.obs]
	g.chol = cp.chol
	if g.chol != nil && g.chol.Size() > cp.cholSize {
		g.chol.Truncate(cp.cholSize)
	}
	g.alpha = cp.alpha
	g.postMu = cp.postMu
	g.postSigma = cp.postSig
	g.postRaw = cp.postRaw
	g.postZ = cp.postZ
	g.postValid = cp.postOK
	g.jitter = cp.jitter
}

// ObservedArm returns the arm of observation i (0-based). Rollback
// bookkeeping reads the discarded suffix this way without copying the
// whole history.
func (g *GP) ObservedArm(i int) int { return g.arms[i] }

// invalidatePosterior marks the cached posterior surface stale. The cached
// slices are left in place (a shadow may still be reading them); the next
// Posterior call allocates a fresh surface.
func (g *GP) invalidatePosterior() {
	if g.postValid {
		g.postValid = false
		g.postStats.Invalidations++
	}
}

// PosteriorCacheStats reports the posterior cache's hit/miss/invalidation
// counters.
func (g *GP) PosteriorCacheStats() CacheStats { return g.postStats }

// refactor rebuilds the Cholesky factorization of (Σt + σ²I) and the solve
// vector alpha. t is at most a few hundred in every workload this system
// handles, so a full O(t³) refactorization per observation is cheap.
func (g *GP) refactor() error {
	t := len(g.arms)
	kt := g.prior.Submatrix(g.arms, g.arms).AddDiag(g.noiseVar)
	ch, jit, err := linalg.NewCholeskyJittered(kt, 1e-10, 12)
	if err != nil {
		return fmt.Errorf("gp: covariance of %d observations is not PSD: %w", t, err)
	}
	g.chol = ch
	g.jitter = jit
	g.alpha = ch.SolveVec(g.ys)
	return nil
}

// kvec returns Σt(k) = [Σ(a₁,k), …, Σ(a_t,k)].
func (g *GP) kvec(k int) []float64 {
	v := make([]float64, len(g.arms))
	for i, a := range g.arms {
		v[i] = g.prior.At(a, k)
	}
	return v
}

// Mean returns the posterior mean µt(k) of arm k. A valid posterior cache
// answers in O(1) — the cached mean is accumulated in the same term order
// as the dot product below, so the two paths agree bit for bit. (After
// ObserveHallucinated the cache is also the authoritative mean surface:
// hallucinations leave µ unchanged by construction.)
func (g *GP) Mean(k int) float64 {
	if len(g.arms) == 0 {
		return 0 // zero-mean prior
	}
	if g.postValid {
		return g.postMu[k]
	}
	return linalg.Dot(g.kvec(k), g.alpha)
}

// Var returns the posterior variance σt²(k) of arm k, clamped at zero to
// absorb floating-point round-off.
func (g *GP) Var(k int) float64 {
	prior := g.prior.At(k, k)
	if len(g.arms) == 0 {
		return prior
	}
	v := prior - g.chol.QuadForm(g.kvec(k))
	if v < 0 {
		v = 0
	}
	return v
}

// Std returns the posterior standard deviation σt(k) of arm k.
func (g *GP) Std(k int) float64 { return math.Sqrt(g.Var(k)) }

// Posterior returns the posterior mean and standard deviation for every arm
// in one pass. It is equivalent to calling Mean and Std per arm but batches
// the work across arms: the means fall out of one alpha sweep over the
// observed arms' prior rows, and the K forward solves behind the variances
// are rows of one solved block (linalg.AppendSolvedRow) instead of K
// separate O(t²) solves with their K temporary vectors — this is the hot
// path of every UCB selection.
//
// The surface is cached between observations: every call but the first
// after an Observe is an O(K) copy (the returned slices are the caller's to
// mutate). That first call appends one row to the solved block per
// observation since the last read and re-sweeps µ — O(K·t) — because the
// block survives factor extensions; only after a jitter refactorization
// replaced the factor does it re-solve all t rows, O(K·t²).
func (g *GP) Posterior() (mu, sigma []float64) {
	k := g.NumArms()
	g.freshenPosterior()
	mu = make([]float64, k)
	sigma = make([]float64, k)
	copy(mu, g.postMu)
	copy(sigma, g.postSigma)
	return mu, sigma
}

// freshenPosterior makes the cached surface current, recomputing it only
// when dirty.
func (g *GP) freshenPosterior() {
	if g.postValid {
		g.postStats.Hits++
		return
	}
	g.postStats.Misses++
	g.refreshPosterior(nil)
}

// refreshPosterior brings the solved block, the raw variances and the
// cached surface up to date with the factor. It appends the block rows the
// factor has and the block lacks — all t after a refactorization, one per
// observation since the last read otherwise — subtracting each row's
// squares from the raw variances as it lands, which is the order a single
// pass from row 0 subtracts them in: the surface does not depend on how the
// rows were batched into reads. µ is re-swept from alpha unless the caller
// knows it (a hallucination leaves it unchanged by construction). Every
// slice it stores is fresh or append-extended, never written in place:
// the old ones may be shared with a base, a shadow or a checkpoint.
func (g *GP) refreshPosterior(mu []float64) {
	k := g.NumArms()
	if mu == nil {
		// µ(j) = kvec(j)·alpha, accumulated row-wise over B.
		mu = make([]float64, k)
		for i, a := range g.arms {
			ai := g.alpha[i]
			for j, v := range g.prior.RowView(a) {
				mu[j] += ai * v
			}
		}
	}
	// σ²(j) = Σ(j,j) − ‖L⁻¹·kvec(j)‖², all K solves one block row at a time.
	var raw []float64
	if len(g.postZ) == 0 {
		raw = g.prior.Diag()
	} else {
		raw = append(raw, g.postRaw...)
	}
	for have := len(g.postZ); have < len(g.arms)*k; have += k {
		g.postZ = g.chol.AppendSolvedRow(g.postZ, g.prior.RowView(g.arms[have/k]))
		for j, v := range g.postZ[have:] {
			raw[j] -= v * v
		}
	}
	sigma := make([]float64, k)
	for j, v := range raw {
		if v < 0 {
			v = 0 // floating-point round-off, same clamp as Var
		}
		sigma[j] = math.Sqrt(v)
	}
	g.postMu, g.postSigma, g.postRaw = mu, sigma, raw
	g.postValid = true
}

// LogMarginalLikelihood returns the log marginal likelihood of the
// observations under the current prior:
//
//	log p(y) = −½ yᵀ(Σt+σ²I)⁻¹y − ½ log|Σt+σ²I| − t/2·log 2π.
//
// It returns 0 when there are no observations.
func (g *GP) LogMarginalLikelihood() float64 {
	t := len(g.arms)
	if t == 0 {
		return 0
	}
	quad := linalg.Dot(g.ys, g.alpha)
	return -0.5*quad - 0.5*g.chol.LogDet() - 0.5*float64(t)*math.Log(2*math.Pi)
}

// Reset discards all observations, returning the process to its prior.
// The history slices are dropped, not truncated: a Shadow may still be
// reading the old backing arrays, and re-appending into them would leak
// the new history into the shadow's clamped view.
func (g *GP) Reset() {
	g.arms = nil
	g.ys = nil
	g.chol = nil
	g.alpha = nil
	g.jitter = 0
	g.invalidatePosterior()
	g.postMu = nil
	g.postSigma = nil
	g.postRaw = nil
	g.postZ = nil
}

// Shadow returns an O(1) hallucination shadow of the process: a GP sharing
// the base's (immutable) prior, observation history, solve vector and
// Cholesky factor by reference instead of deep-copying them. The shadow
// may Observe independently — its history slices are capacity-clamped and
// its factor is a prefix-sharing linalg.Cholesky snapshot, so later growth
// on either side copy-on-writes its own row-pointer array instead of
// corrupting the other. This is what makes GP-BUCB hallucination shadows
// (bandit.NewShadow) O(1) to create, versus Clone's O(t²) history copy
// plus O(t³) refactorization.
//
// The shadow captures the base's state at the split; observations made by
// the base afterwards do not appear in the shadow, and vice versa. The
// cached posterior surface (if any) is shared too — cached slices are
// immutable once built — while the shadow's cache counters start at zero.
func (g *GP) Shadow() *GP {
	t := len(g.arms)
	s := &GP{
		prior:     g.prior, // immutable after New
		noiseVar:  g.noiseVar,
		arms:      g.arms[:t:t],
		ys:        g.ys[:t:t],
		alpha:     g.alpha, // replaced wholesale on Observe, never mutated
		jitter:    g.jitter,
		postMu:    g.postMu, // cached surfaces are immutable once built
		postSigma: g.postSigma,
		postRaw:   g.postRaw,
		postValid: g.postValid,
		// The solved block is append-extended by every read that follows an
		// observation; clamping the capacity keeps either side's appends out
		// of storage the other can see (same copy-on-write discipline as
		// the factor).
		postZ: g.postZ[:len(g.postZ):len(g.postZ)],
	}
	if g.chol != nil {
		s.chol = g.chol.Snapshot()
	}
	return s
}

// Clone returns an independent deep copy of the process, including its
// observation history.
func (g *GP) Clone() *GP {
	c := New(g.prior, g.noiseVar)
	for i, a := range g.arms {
		c.arms = append(c.arms, a)
		c.ys = append(c.ys, g.ys[i])
	}
	if len(c.arms) > 0 {
		// The source factorized this exact history, and jitter escalation
		// is deterministic, so re-factorizing cannot fail here.
		if err := c.refactor(); err != nil {
			panic(fmt.Sprintf("gp: cloning a valid posterior failed to refactor: %v", err))
		}
	}
	return c
}
