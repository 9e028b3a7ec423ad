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
// What one observation costs. With L the Cholesky factor of (Σt + σ²I), B
// the t×K cross-covariance block (row i = Σ(aᵢ, ·)), Z = L⁻¹B the solved
// block and w = L⁻¹y, the posterior is
//
//	µ(j) = Σᵢ wᵢ·Z[i][j],    σ²(j) = Σ(j,j) − Σᵢ Z[i][j]².
//
// Extending the factor by a row changes no earlier row of Z and no earlier
// entry of w, so an observation of arm k adds one of each: the new factor
// row is column k of Z (a gather, O(t), when the block is current — see
// observe), the new entry of w is one dot product with it (O(t)), and the
// next read appends the new block row (O(K·t), the only pass over the
// block) while adding its term to µ and subtracting its squares from the raw
// variance (O(K)). Only a refactorization (jitter escalation) or Reset
// replaces the factor and drops the block; the next read is then the
// from-row-0 case of the same loop.
//
// µ is defined as that sum accumulated from zero in row order, which is the
// order an incremental read, a from-row-0 read, a Clone and a replay all
// produce: however the rows were batched into reads, shared with shadows or
// rolled back, the surface equals a from-scratch rebuild's bit for bit. The
// one exception is a hallucination, which keeps the mean it was taken at
// (ObserveHallucinated) and marks it kept (muKept): the first read after a
// later real observation then re-accumulates µ from row 0 over the existing
// block instead of extending a sum that lacks the hallucinated rows' terms.
//
// Everything a Shadow or a Checkpoint shares with the base is immutable or
// append-only: the prior (New adopts it, the GP never writes it) and the
// rows of the factor and of the block; arms, ys, w and the block's
// row-pointer slice only grow, and shadows hold them capacity-clamped. A
// read writes the surfaces postMu/postRaw in place unless Shadow, Checkpoint
// or Rollback marked them shared (it then allocates an owned pair), so a GP
// is not safe for concurrent use even to take a shadow; each tenant owns one.
type GP struct {
	prior    *linalg.Matrix // K×K prior covariance Σ; shared, never written
	noiseVar float64        // σ²

	arms []int     // a[1:t] — observed arm indices
	ys   []float64 // y[1:t] — observed rewards

	chol   *linalg.Cholesky // factorization of (Σt + σ²I); nil when t == 0
	w      []float64        // L⁻¹y, one entry per observation
	jitter float64          // diagonal jitter added to keep (Σt+σ²I) PD

	// postZ holds the leading rows of the solved block (at most t; fewer
	// when observations have not been read yet), postRaw the raw variance
	// over exactly those rows, unclamped, and postMu the mean over them —
	// or, when muKept, the mean a hallucination kept. postValid says they
	// cover all t observations; it is set by a read and cleared by
	// Observe/Reset; postShared, that a read must not write postMu/postRaw.
	postMu     []float64
	postRaw    []float64
	postZ      [][]float64
	postValid  bool
	postShared bool
	muKept     bool
	postStats  CacheStats
}

// CacheStats counts posterior-cache traffic: Hits and Misses tally
// Posterior calls served from / recomputing the cached surface, and
// Invalidations tallies observations (or resets) that dirtied it. Rebuilds
// counts the misses that could not extend the surface by the rows observed
// since the last read and started over from row 0 of a history of more than
// one observation: the block was dropped by a jitter refactorization (or
// never read), or the mean was a hallucination's and had to be
// re-accumulated. Zero on a healthy tenant that reads between observations.
// Exposed so the selection layers above can report cache effectiveness per
// tenant.
type CacheStats struct {
	Hits          uint64 `json:"hits"`
	Misses        uint64 `json:"misses"`
	Invalidations uint64 `json:"invalidations"`
	Rebuilds      uint64 `json:"rebuilds"`
}

// New creates a GP over K arms with the given prior covariance and
// observation noise variance σ² (noiseVar). It panics if the prior is not
// square or noiseVar is negative.
//
// The process adopts prior instead of copying it — it only ever reads it,
// and shadows and clones share it — so the caller must not modify the
// matrix afterwards, and may hand one matrix to any number of processes
// (core.NewSimulation gives every tenant of one arm count the same one).
func New(prior *linalg.Matrix, noiseVar float64) *GP {
	if prior.Rows() != prior.Cols() {
		panic(fmt.Sprintf("gp: prior covariance must be square, got %d×%d", prior.Rows(), prior.Cols()))
	}
	if noiseVar < 0 {
		panic(fmt.Sprintf("gp: negative noise variance %g", noiseVar))
	}
	return &GP{prior: prior, noiseVar: noiseVar}
}

// NewFromFeatures creates a GP whose prior covariance is built from per-arm
// feature vectors under the given kernel (Appendix A's quality-vector
// construction).
func NewFromFeatures(k Kernel, features [][]float64, noiseVar float64) *GP {
	return New(CovarianceMatrix(k, features), noiseVar)
}

// NumArms returns K, the number of arms.
func (g *GP) NumArms() int { return g.prior.Rows() }

// Prior returns the prior covariance the process adopted: shared, never
// written.
func (g *GP) Prior() *linalg.Matrix { return g.prior }

// NumObservations returns t, the number of observations so far.
func (g *GP) NumObservations() int { return len(g.arms) }

// Observe conditions the process on reward y for arm k (Algorithm 1 line 5)
// and updates the posterior (lines 6–7). It panics if k is out of range (a
// programming error) but returns an error when the observation covariance
// is not positive semi-definite even after jitter escalation — an
// ill-conditioned prior must surface as a failure of this process, not kill
// the caller. On error the observation is rolled back and the posterior —
// surface, solved block and factor — is left exactly as before the call.
//
// The cost is O(t) when a read followed the previous observation (the new
// factor row is gathered from the solved block) and O(t²) when it did not
// (the row is forward-solved); a full refactorization with escalating
// jitter is the fallback when the extended matrix is numerically
// semi-definite. The (µ, σ) surface is brought up to date by the next read,
// in O(K·t) after an extension and O(K·t²) after a refactorization.
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

// observe appends (k, y) to the history and brings the factor and w up to
// date. extended reports that the factor grew by one row, so the solved
// block is still a prefix of the new one; otherwise the factor was rebuilt
// (first observation, or jitter escalation after the extension hit a
// non-positive pivot) and the block is dropped. On error nothing has
// changed.
//
// The new factor row solves L·r = [Σ(a₁,k) … Σ(a_t,k)], and that right-hand
// side is column k of B: when the block holds all t rows, r is column k of
// Z — computed by the row kernel with the operations Extend's own solve
// would perform — and is gathered instead of solved. A block that lags
// (observations replayed without reads in between) takes Extend.
func (g *GP) observe(k int, y float64) (extended bool, err error) {
	t := len(g.arms)
	if g.chol != nil {
		row := make([]float64, t+1)
		row[t] = g.prior.At(k, k) + g.noiseVar + g.jitter
		if len(g.postZ) == t {
			for i, zi := range g.postZ {
				row[i] = zi[k]
			}
			extended = g.chol.ExtendSolved(row) == nil
		} else {
			for i, a := range g.arms {
				row[i] = g.prior.At(a, k)
			}
			extended = g.chol.Extend(row) == nil
		}
	}
	g.arms = append(g.arms, k)
	g.ys = append(g.ys, y)
	if extended {
		g.w = g.chol.AppendSolved(g.w, y)
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
// block anyway. So this is Observe followed by a read that keeps µ: O(K·t)
// for the block row and nothing else above O(K + t), and σ′ is bit for bit
// what a from-scratch posterior pass would produce. The kept µ is the
// caller's surface from before the call, not the row-order sum (the two
// differ by the hallucinated row's term, which is zero up to round-off);
// the process remembers that, see GP. This is the hot operation behind every
// hallucinated batch pick. On a numerically semi-definite extension the
// factor is rebuilt with escalated jitter and the cached surface
// invalidated, exactly as in Observe — correctness never depends on the
// fast path.
func (g *GP) ObserveHallucinated(k int) error {
	g.checkArm(k)
	if len(g.arms) == 0 {
		return g.Observe(k, 0) // zero-mean prior: the hallucinated value is 0
	}
	g.freshenPosterior()
	extended, err := g.observe(k, g.postMu[k])
	if err != nil {
		return err
	}
	if !extended {
		g.invalidatePosterior()
		return nil
	}
	g.refreshPosterior(g.postMu)
	return nil
}

// Checkpoint captures the process state in O(1) for a later Rollback —
// the rollback half of the snapshot/rollback API. It records slice
// headers and the factor pointer, never copying data: every structure it
// references is immutable once built (history prefixes, solve vectors) or
// marked shared (cached surfaces), so restoring the headers restores the
// state bit for bit. The intended use is hallucination lookahead:
// checkpoint a shadow before each fake observation, then Rollback instead
// of rebuilding when in-flight work is handed back.
type Checkpoint struct {
	obs      int
	chol     *linalg.Cholesky
	cholSize int
	w        []float64
	postMu   []float64
	postRaw  []float64
	postZ    [][]float64
	postOK   bool
	muKept   bool
	jitter   float64
}

// Obs returns the observation count the checkpoint was taken at.
func (cp Checkpoint) Obs() int { return cp.obs }

// Checkpoint captures the current state; see the type's documentation.
func (g *GP) Checkpoint() Checkpoint {
	g.postShared = true
	size := 0
	if g.chol != nil {
		size = g.chol.Size()
	}
	return Checkpoint{
		obs:      len(g.arms),
		chol:     g.chol,
		cholSize: size,
		w:        g.w,
		postMu:   g.postMu,
		postRaw:  g.postRaw,
		// Clamped like the factor's rows in Truncate: block rows appended
		// after a Rollback go to a fresh pointer array.
		postZ:  g.postZ[:len(g.postZ):len(g.postZ)],
		postOK: g.postValid,
		muKept: g.muKept,
		jitter: g.jitter,
	}
}

// Rollback restores the state captured by cp in O(1) (plus an O(n) pointer
// truncation inside the factor), its surfaces marked shared: cp may restore
// them again. Later observations are discarded; the caller must not roll
// back past observations that other shadows were built on (the server's
// selection index only rolls a private shadow back to its own checkpoints).
// Checkpoints taken after cp become invalid.
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
	g.w = cp.w
	g.postMu = cp.postMu
	g.postRaw = cp.postRaw
	g.postZ = cp.postZ
	g.postValid = cp.postOK
	g.postShared = true
	g.muKept = cp.muKept
	g.jitter = cp.jitter
}

// ObservedArm returns the arm of observation i (0-based). Rollback
// bookkeeping reads the discarded suffix this way without copying the
// whole history.
func (g *GP) ObservedArm(i int) int { return g.arms[i] }

// invalidatePosterior marks the cached posterior surface stale; the next
// read extends it by the new rows (see refreshPosterior).
func (g *GP) invalidatePosterior() {
	if g.postValid {
		g.postValid = false
		g.postStats.Invalidations++
	}
}

// PosteriorCacheStats reports the posterior cache's hit/miss/invalidation
// counters.
func (g *GP) PosteriorCacheStats() CacheStats { return g.postStats }

// refactor rebuilds the Cholesky factorization of (Σt + σ²I) and w. t is at
// most a few hundred in every workload this system handles, so a full O(t³)
// refactorization is cheap where it is needed: the first observation, a
// jitter escalation, a Clone, a likelihood evaluation. The factor reads Σt
// straight out of the prior, adding σ² to each diagonal element as it reads
// it: no t×t copy is made.
func (g *GP) refactor() error {
	t := len(g.arms)
	ch, jit, err := linalg.NewCholeskyJitteredAt(g.prior, g.arms, g.noiseVar, 1e-10, 12)
	if err != nil {
		return fmt.Errorf("gp: covariance of %d observations is not PSD: %w", t, err)
	}
	g.chol = ch
	g.jitter = jit
	g.w = ch.ForwardSolve(g.ys)
	return nil
}

// alpha returns (Σt+σ²I)⁻¹y = L⁻ᵀw in O(t²). Nothing per observation or per
// read needs it — the surface is read off Z and w — only the per-arm Mean
// on a stale cache and the marginal likelihood do.
func (g *GP) alpha() []float64 { return g.chol.BackwardSolve(g.w) }

// kvec returns Σt(k) = [Σ(a₁,k), …, Σ(a_t,k)].
func (g *GP) kvec(k int) []float64 {
	v := make([]float64, len(g.arms))
	for i, a := range g.arms {
		v[i] = g.prior.At(a, k)
	}
	return v
}

// Mean returns the posterior mean µt(k) of arm k. A valid posterior cache
// answers in O(1). (After ObserveHallucinated the cache is also the
// authoritative mean surface: hallucinations leave µ unchanged by
// construction.) On a stale cache it is Σt(k)·α, O(t²), which agrees with
// the surface the next read caches to round-off — both are roundings of the
// same number — and leaves the solved block alone.
func (g *GP) Mean(k int) float64 {
	if len(g.arms) == 0 {
		return 0 // zero-mean prior
	}
	if g.postValid {
		return g.postMu[k]
	}
	return linalg.Dot(g.kvec(k), g.alpha())
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
// the work across arms: the K forward solves behind the variances are rows
// of one solved block (linalg.AppendSolvedRow) instead of K separate O(t²)
// solves with their K temporary vectors, and the means fall out of the same
// rows — this is the hot path of every UCB selection.
//
// The surface is cached between observations as (µ, raw variance): every
// call but the first after an Observe is O(K) — two fresh copies, the
// caller's to mutate and keep, σ the clamped square root taken here. That
// first call appends one row to the solved block per observation since the
// last read, O(K·t) each, and folds it into µ and the variance in O(K);
// only after a jitter refactorization replaced the factor does it re-solve
// all t rows, O(K·t²). Surface is the same read, in place, without copies.
func (g *GP) Posterior() (mu, sigma []float64) {
	k := g.NumArms()
	g.freshenPosterior()
	mu = make([]float64, k)
	sigma = make([]float64, k)
	copy(mu, g.postMu)
	for j, v := range g.postRaw {
		sigma[j] = StdOfRaw(v)
	}
	return mu, sigma
}

// Surface makes the cached surface current, exactly as Posterior does, and
// returns it in place: the posterior mean and the raw posterior variance
// Σ(j,j) − Σᵢ Z[i][j]² of every arm, which round-off can leave slightly
// negative (StdOfRaw clamps). The slices are the cache itself: the caller
// must not modify them, and they are valid until this process's next
// mutation (a read may then write them in place; see GP).
func (g *GP) Surface() (mu, rawVar []float64) {
	g.freshenPosterior()
	return g.postMu, g.postRaw
}

// StdOfRaw turns a raw variance from Surface into the standard deviation
// Posterior reports: clamped at zero to absorb floating-point round-off
// (the same clamp as Var), then rooted.
func StdOfRaw(v float64) float64 {
	if v < 0 {
		v = 0
	}
	return math.Sqrt(v)
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

// refreshPosterior brings the solved block, the raw variances and the mean
// up to date with the factor. It appends the block rows the factor has and
// the block lacks — all t after a refactorization, one per observation
// since the last read otherwise — folding each into the raw variances and
// the mean as it lands, which is the order a single pass from row 0 folds
// them in: the surface does not depend on how the rows were batched into
// reads. keepMu is the mean a hallucination leaves unchanged by
// construction; it is adopted as is and marked kept, and the first refresh
// without one after that restarts the mean's sum from row 0 of the block
// (see GP). Rows fold into owned surfaces in place and into copies of
// shared ones; a kept mean stays marked shared.
func (g *GP) refreshPosterior(keepMu []float64) {
	have := len(g.postZ)
	resum := g.muKept && keepMu == nil
	if len(g.arms) > 1 && (have == 0 || resum) {
		g.postStats.Rebuilds++
	}
	raw, mu := g.postRaw, keepMu
	if have == 0 {
		raw = g.prior.Diag()
	} else if g.postShared {
		raw = append([]float64(nil), raw...)
	}
	if mu == nil {
		mu = g.postMu
		if resum || have == 0 {
			mu = make([]float64, g.NumArms())
			for i, zi := range g.postZ { // no rows when have == 0
				wi := g.w[i]
				for j, z := range zi {
					mu[j] += float64(wi * z)
				}
			}
		} else if g.postShared {
			mu = append([]float64(nil), mu...)
		}
	}
	for i := have; i < len(g.arms); i++ {
		g.postZ = g.chol.AppendSolvedRow(g.postZ, g.prior.RowView(g.arms[i]))
		zi := g.postZ[i]
		if keepMu != nil {
			for j, z := range zi {
				raw[j] -= float64(z * z)
			}
			continue
		}
		wi := g.w[i]
		for j, z := range zi {
			raw[j] -= float64(z * z)
			mu[j] += float64(wi * z)
		}
	}
	g.postMu, g.postRaw = mu, raw
	g.muKept = keepMu != nil
	g.postShared = g.muKept
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
	quad := linalg.Dot(g.ys, g.alpha())
	return float64(-0.5*quad) - float64(0.5*g.chol.LogDet()) - float64(0.5*float64(t)*math.Log(2*math.Pi))
}

// Shadow returns an O(1) hallucination shadow of the process: a GP sharing
// the base's (immutable) prior, observation history, solved vector and
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
// cached surface is shared too, marked so on both sides, while the
// shadow's cache counters start at zero.
func (g *GP) Shadow() *GP {
	t := len(g.arms)
	g.postShared = true
	s := &GP{
		prior:      g.prior, // immutable after New
		noiseVar:   g.noiseVar,
		arms:       g.arms[:t:t],
		ys:         g.ys[:t:t],
		w:          g.w[:len(g.w):len(g.w)],
		jitter:     g.jitter,
		postMu:     g.postMu,
		postRaw:    g.postRaw,
		postValid:  g.postValid,
		postShared: true,
		muKept:     g.muKept,
		// The solved block grows by one row slice per observation read;
		// its rows are immutable, and clamping the row-pointer slice keeps
		// either side's appends out of storage the other can see (same
		// copy-on-write discipline as the factor).
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
