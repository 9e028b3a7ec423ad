package linalg

import (
	"errors"
	"fmt"
	"math"
)

// ErrNotPositiveDefinite is returned by Cholesky when the input matrix is not
// (numerically) symmetric positive definite.
var ErrNotPositiveDefinite = errors.New("linalg: matrix is not positive definite")

// Cholesky holds the lower-triangular factor L of a symmetric positive
// definite matrix A, such that A = L·Lᵀ. The factor is stored as ragged rows
// so that Extend can grow it by one row in O(n²) — the operation that makes
// per-observation Gaussian-Process updates cheap.
type Cholesky struct {
	rows [][]float64 // rows[i] has length i+1 (lower triangle incl. diagonal)
}

// NewCholesky factorizes the symmetric positive definite matrix a.
// Only the lower triangle of a is read. It returns ErrNotPositiveDefinite if
// a pivot is non-positive.
func NewCholesky(a *Matrix) (*Cholesky, error) {
	if a.Rows() != a.Cols() {
		return nil, fmt.Errorf("linalg: Cholesky of non-square %d×%d matrix", a.Rows(), a.Cols())
	}
	return factor(a, nil, 0, 0)
}

// factor factorizes a[idx, idx] + (shift + jitter)·I (all of a when idx is
// nil), reading only its lower triangle and adding shift, then jitter, to
// each diagonal element as it reads it. Row i is Extend's: the forward solve of the row's first i
// elements against the rows before it, then appendRow's pivot, the same
// operations in the same order, done in place. The rows are carved out of
// one backing array of n(n+1)/2 floats, each capacity-clamped, so one
// factorization is three allocations and a later Extend still allocates
// its own row, never writing where a Snapshot can see.
func factor(a *Matrix, idx []int, shift, jitter float64) (*Cholesky, error) {
	n := a.Rows()
	if idx != nil {
		n = len(idx)
	}
	at := func(i int) int {
		if idx == nil {
			return i
		}
		return idx[i]
	}
	buf := make([]float64, n*(n+1)/2)
	c := &Cholesky{rows: make([][]float64, 0, n)}
	for i := 0; i < n; i++ {
		y := buf[: i+1 : i+1]
		buf = buf[i+1:]
		ai := at(i)
		for j := 0; j < i; j++ {
			y[j] = a.At(ai, at(j))
		}
		y[i] = a.At(ai, ai) + shift + jitter
		for j := 0; j < i; j++ {
			s := y[j]
			lj := c.rows[j]
			for k := 0; k < j; k++ {
				s -= float64(lj[k] * y[k])
			}
			y[j] = s / lj[j]
		}
		if err := c.appendRow(y); err != nil {
			return nil, fmt.Errorf("%w (pivot %d)", err, i)
		}
	}
	return c, nil
}

// NewCholeskyJittered tries to factorize a, adding exponentially increasing
// diagonal jitter (starting at startJitter, growing 10× up to maxTries
// times) when the matrix is numerically semi-definite. It returns the
// factorization and the jitter that was finally added.
//
// This mirrors the standard GP implementation trick: covariance matrices
// built from nearly identical quality vectors are often singular to machine
// precision even though they are valid covariances.
func NewCholeskyJittered(a *Matrix, startJitter float64, maxTries int) (*Cholesky, float64, error) {
	if a.Rows() != a.Cols() {
		return nil, 0, fmt.Errorf("linalg: Cholesky of non-square %d×%d matrix", a.Rows(), a.Cols())
	}
	return NewCholeskyJitteredAt(a, nil, 0, startJitter, maxTries)
}

// NewCholeskyJitteredAt is NewCholeskyJittered of a[idx, idx] + shift·I,
// the principal submatrix at idx (all of a when idx is nil; indices must be
// in range and may repeat) with shift on its diagonal, read straight out of
// a: no copy of the submatrix is made. A diagonal element is
// (a[idx[i], idx[i]] + shift) + jitter, the additions of shifting a copy and
// then jittering it, so the factor is that copy's bit for bit.
func NewCholeskyJitteredAt(a *Matrix, idx []int, shift, startJitter float64, maxTries int) (*Cholesky, float64, error) {
	if startJitter <= 0 {
		startJitter = 1e-10
	}
	if maxTries <= 0 {
		maxTries = 10
	}
	if ch, err := factor(a, idx, shift, 0); err == nil {
		return ch, 0, nil
	}
	jitter := startJitter
	for try := 0; try < maxTries; try++ {
		if ch, err := factor(a, idx, shift, jitter); err == nil {
			return ch, jitter, nil
		}
		jitter *= 10
	}
	return nil, 0, fmt.Errorf("%w: still singular after jitter %g", ErrNotPositiveDefinite, jitter/10)
}

// Extend grows the factorization by one row: row is the new last row of the
// extended matrix A′ (its length must be Size()+1, ending with the new
// diagonal element). On a non-positive pivot the factorization is left
// unchanged and ErrNotPositiveDefinite is returned. The cost is O(n²): the
// forward solve L·y = row[:n]. A caller that already holds y — it is column
// k of any block solved against this factor whose right-hand side column k
// is row[:n] — skips the solve with ExtendSolved; the pivot rule is the
// same code.
func (c *Cholesky) Extend(row []float64) error {
	n := c.Size()
	if len(row) != n+1 {
		return fmt.Errorf("linalg: Extend row has %d elements for size-%d factor", len(row), n)
	}
	// Solve L·y = row[:n]; the new factor row is [y..., sqrt(d)].
	y := make([]float64, n+1)
	for i := 0; i < n; i++ {
		y[i] = substitute(c.rows[i], y[:i], row[i])
	}
	y[n] = row[n]
	return c.appendRow(y)
}

// ExtendSolved is Extend for a caller that has the forward solve already:
// y[:n] is L⁻¹·row[:n] and y[n] the new diagonal element of A′, n = Size().
// The cost is O(n). On success the factor adopts y as its new row (the
// caller must not touch it again); on a non-positive pivot y and the factor
// are left unchanged and ErrNotPositiveDefinite is returned.
//
// When y[:n] was gathered from a block built by AppendSolvedRow or
// ForwardSolveBatch, the new row is bit for bit the row Extend computes:
// the row kernel performs Extend's subtractions on the same operands in the
// same order and divides by the same pivot.
func (c *Cholesky) ExtendSolved(y []float64) error {
	if n := c.Size(); len(y) != n+1 {
		return fmt.Errorf("linalg: ExtendSolved row has %d elements for size-%d factor", len(y), n)
	}
	return c.appendRow(y)
}

// appendRow finishes an extension: y[:n] is the solved part of the new
// factor row and y[n] the diagonal element it pivots on. This is the one
// pivot rule — d = y[n] − Σy², rejected when d ≤ 0 or NaN — behind Extend
// and ExtendSolved. y is written only on success.
func (c *Cholesky) appendRow(y []float64) error {
	n := len(y) - 1
	d := y[n]
	for _, v := range y[:n] {
		d -= float64(v * v)
	}
	if d <= 0 || math.IsNaN(d) {
		return fmt.Errorf("%w: new pivot is %g", ErrNotPositiveDefinite, d)
	}
	y[n] = math.Sqrt(d)
	c.rows = append(c.rows, y)
	return nil
}

// Size returns the dimension n of the factorized matrix.
func (c *Cholesky) Size() int { return len(c.rows) }

// Snapshot returns a prefix-sharing shadow of the factorization in O(1):
// the shadow aliases the base's rows instead of deep-copying the O(n²)
// triangle. Both the base and the shadow may keep calling Extend
// independently afterwards — rows are immutable once appended, and the
// shadow's row-pointer slice is capacity-clamped, so either side's next
// append reallocates its own pointer array (an O(n) pointer copy, never a
// float copy) rather than writing into storage the other can see. This is
// what makes GP-BUCB hallucination shadows O(1) to create: a shadow shares
// the real posterior's factor and only appends hallucinated rows.
func (c *Cholesky) Snapshot() *Cholesky {
	n := len(c.rows)
	return &Cholesky{rows: c.rows[:n:n]}
}

// Truncate rolls the factorization back to its first n rows — the inverse
// of n fewer Extends. Like Snapshot it clamps capacity, so a later Extend
// cannot overwrite rows still visible through an earlier Snapshot. It
// panics when n is negative or exceeds Size.
func (c *Cholesky) Truncate(n int) {
	if n < 0 || n > len(c.rows) {
		panic(fmt.Sprintf("linalg: Truncate to %d rows of a size-%d factor", n, len(c.rows)))
	}
	c.rows = c.rows[:n:n]
}

// L returns a copy of the lower-triangular factor as a dense matrix.
func (c *Cholesky) L() *Matrix {
	n := c.Size()
	l := NewMatrix(n, n)
	for i, row := range c.rows {
		for j, v := range row {
			l.Set(i, j, v)
		}
	}
	return l
}

// ForwardSolve solves L·y = b for y.
func (c *Cholesky) ForwardSolve(b []float64) []float64 {
	n := c.Size()
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		y[i] = substitute(c.rows[i], y[:i], b[i])
	}
	return y
}

// BackwardSolve solves Lᵀ·x = y for x.
func (c *Cholesky) BackwardSolve(y []float64) []float64 {
	n := c.Size()
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		for k := i + 1; k < n; k++ {
			s -= float64(c.rows[k][i] * x[k])
		}
		x[i] = s / c.rows[i][i]
	}
	return x
}

// LogDet returns log|A| of the factorized matrix A, computed as
// 2·Σ log L[i,i]. This is the quantity the GP log marginal likelihood needs.
func (c *Cholesky) LogDet() float64 {
	var s float64
	for i, row := range c.rows {
		s += math.Log(row[i])
	}
	return 2 * s
}

// QuadForm returns bᵀ·A⁻¹·b for the factorized matrix A. It is computed
// stably as ‖L⁻¹b‖² via a single forward solve.
func (c *Cholesky) QuadForm(b []float64) float64 {
	y := c.ForwardSolve(b)
	var s float64
	for _, v := range y {
		s += float64(v * v)
	}
	return s
}

// AppendSolved extends a solved vector by one entry: w holds the first
// len(w) entries of L⁻¹·v and b is entry len(w) of v; the result is w with
// that entry of the solution appended (in place when w has the capacity,
// like append), in O(len(w)). Entry i depends only on factor rows 0..i,
// which Extend never changes, so a vector solved against a shorter factor
// stays valid as the factor grows. The appended entry is bit for bit what
// ForwardSolve computes there.
func (c *Cholesky) AppendSolved(w []float64, b float64) []float64 {
	i := len(w)
	if i >= c.Size() {
		panic(fmt.Sprintf("linalg: AppendSolved onto %d solved entries of a size-%d factor", i, c.Size()))
	}
	return append(w, substitute(c.rows[i], w, b))
}

// substitute is one forward-substitution step: entry i = len(y) of
// L⁻¹·v, given its first i entries y, factor row i and b = v[i]. The
// products are subtracted in index order, so ForwardSolve, Extend and
// AppendSolved compute every entry with the same bits.
func substitute(row, y []float64, b float64) float64 {
	s := b
	for k, v := range y {
		s -= float64(row[k] * v)
	}
	return s / row[len(y)]
}

// ForwardSolveBatch solves L·Z = B for many right-hand sides in one pass
// over the factor. B is row-major with one column per right-hand side —
// b[i*cols+j] is element i of rhs j — and the result uses the same layout.
// Walking L's rows once with the columns adjacent in the inner loop is
// what makes batched GP posteriors cheap: per-column ForwardSolve calls
// would traverse the factor (and allocate) once per column. The rows of the
// result are carved out of one flat buffer and solved by the kernel behind
// AppendSolvedRow, so it is that routine from row 0 to Size(), bit for bit.
func (c *Cholesky) ForwardSolveBatch(b []float64, cols int) []float64 {
	n := c.Size()
	if cols <= 0 {
		panic(fmt.Sprintf("linalg: ForwardSolveBatch with %d columns", cols))
	}
	if len(b) != n*cols {
		panic(fmt.Sprintf("linalg: ForwardSolveBatch length %d does not match %d×%d", len(b), n, cols))
	}
	flat := make([]float64, len(b))
	z := make([][]float64, n)
	for i := range z {
		z[i] = flat[i*cols : (i+1)*cols : (i+1)*cols]
		c.solveRow(z[i], z[:i], b[i*cols:(i+1)*cols])
	}
	return flat
}

// AppendSolvedRow extends a solved block by one row. z holds the first
// i = len(z) rows of Z = L⁻¹·B, one slice of len(b) columns per row, and b
// is row i of B; the result is z with row i of Z appended — a fresh slice of
// exactly len(b) floats, so growing the block never copies it, and only the
// row-pointer slice is written (in place when it has the capacity, like
// append). Rows already in z are read, never written. Row i of Z depends
// only on factor rows 0..i, which Extend never changes, so a block solved
// against a shorter factor stays valid as the factor grows and each new
// factor row costs one O(i·cols) call here instead of a full
// ForwardSolveBatch — the step that keeps per-observation GP posterior
// updates linear in the history.
func (c *Cholesky) AppendSolvedRow(z [][]float64, b []float64) [][]float64 {
	cols := len(b)
	if cols == 0 || len(z) >= c.Size() {
		panic(fmt.Sprintf("linalg: AppendSolvedRow of %d columns onto %d solved rows of a size-%d factor", cols, len(z), c.Size()))
	}
	for k, zk := range z {
		if len(zk) != cols {
			panic(fmt.Sprintf("linalg: AppendSolvedRow of %d columns onto a block whose row %d has %d", cols, k, len(zk)))
		}
	}
	dst := make([]float64, cols)
	c.solveRow(dst, z, b)
	return append(z, dst)
}

// solveRow is the row kernel: it writes row i = len(z) of Z = L⁻¹·B into
// dst, given rows 0..i−1 in z and row i of B in b (all len(dst) long),
//
//	dst[j] = (b[j] − Σ_{k<i} L[i][k]·z[k][j]) / L[i][i],
//
// subtracting in increasing k and dividing last (not multiplying by a
// reciprocal) — per column the operations of ForwardSolve and of Extend's
// solve, so all three agree bit for bit. A zero factor coefficient is
// skipped, as a sparse factor would. solveRowKernel runs the sum and the
// divide: the AVX2 kernel where the CPU has it, solveRowGo elsewhere.
func (c *Cholesky) solveRow(dst []float64, z [][]float64, b []float64) {
	copy(dst, b)
	solveRowKernel(dst, z, c.rows[len(z)])
}

// solveRowGo is the portable row kernel: dst holds row i = len(z) of B on
// entry and row i of Z on return, row is factor row i (i+1 long).
//
// The sum is i AXPYs onto dst. Taking four coefficients per pass keeps the
// target element in a register across four subtractions — the same
// subtractions in the same order — and loads and stores dst a quarter as
// often, which is where the time goes once the block outgrows L1. A group
// holding a zero coefficient takes the scalar loop, so the skip means the
// same thing on both routes.
func solveRowGo(dst []float64, z [][]float64, row []float64) {
	i := len(z)
	k := 0
	for ; k+4 <= i; k += 4 {
		c0, c1, c2, c3 := row[k], row[k+1], row[k+2], row[k+3]
		if c0 == 0 || c1 == 0 || c2 == 0 || c3 == 0 {
			for m := k; m < k+4; m++ {
				axpyNeg(dst, row[m], z[m])
			}
			continue
		}
		z0, z1, z2, z3 := z[k][:len(dst)], z[k+1][:len(dst)], z[k+2][:len(dst)], z[k+3][:len(dst)]
		for j, s := range dst {
			s -= float64(c0 * z0[j])
			s -= float64(c1 * z1[j])
			s -= float64(c2 * z2[j])
			s -= float64(c3 * z3[j])
			dst[j] = s
		}
	}
	for ; k < i; k++ {
		axpyNeg(dst, row[k], z[k])
	}
	piv := row[i]
	for j := range dst {
		dst[j] /= piv
	}
}

// axpyNeg subtracts coef·x from dst elementwise; a zero coefficient is a
// no-op.
func axpyNeg(dst []float64, coef float64, x []float64) {
	if coef == 0 {
		return
	}
	x = x[:len(dst)]
	for j := range dst {
		dst[j] -= float64(coef * x[j])
	}
}
