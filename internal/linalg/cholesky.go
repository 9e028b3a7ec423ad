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
	c := &Cholesky{}
	row := make([]float64, 0, a.Rows())
	for i := 0; i < a.Rows(); i++ {
		row = row[:0]
		for j := 0; j <= i; j++ {
			row = append(row, a.At(i, j))
		}
		if err := c.Extend(row); err != nil {
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
	if startJitter <= 0 {
		startJitter = 1e-10
	}
	if maxTries <= 0 {
		maxTries = 10
	}
	if ch, err := NewCholesky(a); err == nil {
		return ch, 0, nil
	}
	jitter := startJitter
	for try := 0; try < maxTries; try++ {
		aj := a.Clone().AddDiag(jitter)
		if ch, err := NewCholesky(aj); err == nil {
			return ch, jitter, nil
		}
		jitter *= 10
	}
	return nil, 0, fmt.Errorf("%w: still singular after jitter %g", ErrNotPositiveDefinite, jitter/10)
}

// Extend grows the factorization by one row: row is the new last row of the
// extended matrix A′ (its length must be Size()+1, ending with the new
// diagonal element). On a non-positive pivot the factorization is left
// unchanged and ErrNotPositiveDefinite is returned. The cost is O(n²).
func (c *Cholesky) Extend(row []float64) error {
	n := c.Size()
	if len(row) != n+1 {
		return fmt.Errorf("linalg: Extend row has %d elements for size-%d factor", len(row), n)
	}
	// Solve L·y = row[:n]; the new factor row is [y..., sqrt(d)].
	y := make([]float64, n+1)
	for i := 0; i < n; i++ {
		s := row[i]
		li := c.rows[i]
		for k := 0; k < i; k++ {
			s -= li[k] * y[k]
		}
		y[i] = s / li[i]
	}
	d := row[n]
	for _, v := range y[:n] {
		d -= v * v
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

// SolveVec solves A·x = b for x, where A = L·Lᵀ is the factorized matrix.
func (c *Cholesky) SolveVec(b []float64) []float64 {
	if len(b) != c.Size() {
		panic(fmt.Sprintf("linalg: SolveVec length %d does not match size %d", len(b), c.Size()))
	}
	y := c.ForwardSolve(b)
	return c.BackwardSolve(y)
}

// ForwardSolve solves L·y = b for y.
func (c *Cholesky) ForwardSolve(b []float64) []float64 {
	n := c.Size()
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		s := b[i]
		row := c.rows[i]
		for k := 0; k < i; k++ {
			s -= row[k] * y[k]
		}
		y[i] = s / row[i]
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
			s -= c.rows[k][i] * x[k]
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
		s += v * v
	}
	return s
}

// ForwardSolveBatch solves L·Z = B for many right-hand sides in one pass
// over the factor. B is row-major with one column per right-hand side —
// b[i*cols+j] is element i of rhs j — and the result uses the same layout.
// Walking L's rows once with the columns adjacent in the inner loop is
// what makes batched GP posteriors cheap: per-column ForwardSolve calls
// would traverse the factor (and allocate) once per column, while here the
// inner loop is a contiguous AXPY across all columns. It is
// AppendSolvedRow from row 0 to Size().
func (c *Cholesky) ForwardSolveBatch(b []float64, cols int) []float64 {
	n := c.Size()
	if cols <= 0 {
		panic(fmt.Sprintf("linalg: ForwardSolveBatch with %d columns", cols))
	}
	if len(b) != n*cols {
		panic(fmt.Sprintf("linalg: ForwardSolveBatch length %d does not match %d×%d", len(b), n, cols))
	}
	z := make([]float64, 0, len(b))
	for i := 0; i < n; i++ {
		z = c.AppendSolvedRow(z, b[i*cols:(i+1)*cols])
	}
	return z
}

// AppendSolvedRow extends a solved block by one row. z holds the first
// i = len(z)/len(b) rows of Z = L⁻¹·B (row-major, len(b) columns) and b is
// row i of B; the result is z with row i of Z appended (in place when z has
// the capacity, like append). Row i of Z depends only on factor rows 0..i,
// which Extend never changes, so a block solved against a shorter factor
// stays valid as the factor grows and each new factor row costs one
// O(i·cols) call here instead of a full ForwardSolveBatch — the step that
// keeps per-observation GP posterior updates linear in the history.
func (c *Cholesky) AppendSolvedRow(z, b []float64) []float64 {
	cols := len(b)
	if cols == 0 || len(z)%cols != 0 || len(z)/cols >= c.Size() {
		panic(fmt.Sprintf("linalg: AppendSolvedRow of %d columns onto %d solved values of a size-%d factor", cols, len(z), c.Size()))
	}
	i := len(z) / cols
	z = append(z, b...)
	row := c.rows[i]
	zi := z[i*cols:]
	for k := 0; k < i; k++ {
		coef := row[k]
		if coef == 0 {
			continue
		}
		zk := z[k*cols : (k+1)*cols]
		for j, v := range zk {
			zi[j] -= coef * v
		}
	}
	// Divide (not multiply by a reciprocal): bit-identical to the
	// per-column ForwardSolve, so batched and scalar posteriors agree
	// exactly.
	piv := row[i]
	for j := range zi {
		zi[j] /= piv
	}
	return z
}
