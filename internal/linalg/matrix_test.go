package linalg

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewMatrixZeroed(t *testing.T) {
	m := NewMatrix(3, 4)
	if m.Rows() != 3 || m.Cols() != 4 {
		t.Fatalf("got %d×%d, want 3×4", m.Rows(), m.Cols())
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 4; j++ {
			if m.At(i, j) != 0 {
				t.Errorf("element (%d,%d) = %g, want 0", i, j, m.At(i, j))
			}
		}
	}
}

func TestNewMatrixFromRows(t *testing.T) {
	m := NewMatrixFromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	if m.Rows() != 3 || m.Cols() != 2 {
		t.Fatalf("got %d×%d, want 3×2", m.Rows(), m.Cols())
	}
	if m.At(2, 1) != 6 || m.At(0, 0) != 1 {
		t.Errorf("wrong elements: %v", m)
	}
}

func TestNewMatrixFromRowsRaggedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on ragged rows")
		}
	}()
	NewMatrixFromRows([][]float64{{1, 2}, {3}})
}

func TestNewMatrixNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on negative dims")
		}
	}()
	NewMatrix(-1, 2)
}

func TestIdentity(t *testing.T) {
	id := Identity(3)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if id.At(i, j) != want {
				t.Errorf("I(%d,%d) = %g, want %g", i, j, id.At(i, j), want)
			}
		}
	}
}

func TestSetAddAt(t *testing.T) {
	m := NewMatrix(2, 2)
	m.Set(0, 1, 5)
	m.Add(0, 1, 2.5)
	if got := m.At(0, 1); got != 7.5 {
		t.Errorf("got %g, want 7.5", got)
	}
}

func TestAtOutOfRangePanics(t *testing.T) {
	m := NewMatrix(2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on out-of-range access")
		}
	}()
	m.At(2, 0)
}

func TestRowColClone(t *testing.T) {
	m := NewMatrixFromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	row := m.Row(1)
	if row[0] != 4 || row[2] != 6 {
		t.Errorf("Row(1) = %v", row)
	}
	// Mutating the copy must not affect the matrix.
	row[0] = 99
	if m.At(1, 0) != 4 {
		t.Error("Row returned aliased storage")
	}
	c := m.Clone()
	c.Set(0, 0, 42)
	if m.At(0, 0) != 1 {
		t.Error("Clone returned aliased storage")
	}
}

func TestTranspose(t *testing.T) {
	m := NewMatrixFromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	tr := m.Transpose()
	if tr.Rows() != 3 || tr.Cols() != 2 {
		t.Fatalf("got %d×%d, want 3×2", tr.Rows(), tr.Cols())
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			if m.At(i, j) != tr.At(j, i) {
				t.Errorf("transpose mismatch at (%d,%d)", i, j)
			}
		}
	}
}

func TestMul(t *testing.T) {
	a := NewMatrixFromRows([][]float64{{1, 2}, {3, 4}})
	b := NewMatrixFromRows([][]float64{{5, 6}, {7, 8}})
	got := a.Mul(b)
	want := NewMatrixFromRows([][]float64{{19, 22}, {43, 50}})
	if !got.Equal(want, 1e-12) {
		t.Errorf("got %v, want %v", got, want)
	}
}

func TestMulDimMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewMatrix(2, 3).Mul(NewMatrix(2, 2))
}

func TestMulVec(t *testing.T) {
	a := NewMatrixFromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	got := a.MulVec([]float64{1, 0, -1})
	if got[0] != -2 || got[1] != -2 {
		t.Errorf("got %v, want [-2 -2]", got)
	}
}

func TestScaleAddDiagDiag(t *testing.T) {
	m := Identity(3).AddDiag(1.5)
	d := m.Diag()
	for i, v := range d {
		if v != 2.5 {
			t.Errorf("diag[%d] = %g, want 2.5", i, v)
		}
	}
}

func TestSubmatrix(t *testing.T) {
	m := NewMatrixFromRows([][]float64{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}})
	s := m.Submatrix([]int{2, 0}, []int{1})
	if s.Rows() != 2 || s.Cols() != 1 || s.At(0, 0) != 8 || s.At(1, 0) != 2 {
		t.Errorf("Submatrix = %v", s)
	}
}

func TestVectorHelpers(t *testing.T) {
	if got := Dot([]float64{1, 2, 3}, []float64{4, 5, 6}); got != 32 {
		t.Errorf("Dot = %g, want 32", got)
	}
	if got := SqDist([]float64{1, 1}, []float64{4, 5}); got != 25 {
		t.Errorf("SqDist = %g, want 25", got)
	}
}

// SqDistUpper must give SqDist's bits on and above the diagonal, whatever
// the four-pair sweep leaves over, and write nothing below it.
func TestSqDistUpperMatchesSqDist(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for n := 1; n <= 9; n++ {
		points := make([][]float64, n)
		for i := range points {
			points[i] = []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		}
		m := NewMatrix(n, n)
		for i := range m.data {
			m.data[i] = -1
		}
		SqDistUpper(m, points)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				want := -1.0
				if j >= i {
					want = SqDist(points[i], points[j])
				}
				if math.Float64bits(m.At(i, j)) != math.Float64bits(want) {
					t.Fatalf("n=%d: entry (%d,%d) = %v, want %v", n, i, j, m.At(i, j), want)
				}
			}
		}
		sym := m.MapUpper(NewMatrix(n, n), math.Sqrt)
		for i := 0; i < n; i++ {
			for j := i; j < n; j++ {
				if sym.At(i, j) != math.Sqrt(m.At(i, j)) || sym.At(j, i) != sym.At(i, j) {
					t.Fatalf("n=%d: MapUpper entry (%d,%d) = %v / %v", n, i, j, sym.At(i, j), sym.At(j, i))
				}
			}
		}
	}
	mustPanic(t, func() { SqDistUpper(NewMatrix(5, 5), [][]float64{{0}, {1, 2}, {2}, {3}, {4}}) })
	mustPanic(t, func() { SqDistUpper(NewMatrix(2, 3), [][]float64{{0}, {1}}) })
	mustPanic(t, func() { NewMatrix(2, 2).MapUpper(NewMatrix(3, 3), math.Sqrt) })
}

// Submatrix, Transpose and Mul serve the tests alone, to build positive
// definite matrices, check factors and pick out principal submatrices.

// Submatrix returns the matrix restricted to the given row and column index
// sets (in the given order). Indices may repeat.
func (m *Matrix) Submatrix(rowIdx, colIdx []int) *Matrix {
	out := NewMatrix(len(rowIdx), len(colIdx))
	for i, r := range rowIdx {
		for j, c := range colIdx {
			out.data[i*out.cols+j] = m.At(r, c)
		}
	}
	return out
}

// Transpose returns a new matrix that is the transpose of m.
func (m *Matrix) Transpose() *Matrix {
	t := NewMatrix(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			t.data[j*t.cols+i] = m.data[i*m.cols+j]
		}
	}
	return t
}

// Mul returns the matrix product m·b. It panics on a dimension mismatch.
func (m *Matrix) Mul(b *Matrix) *Matrix {
	if m.cols != b.rows {
		panic(fmt.Sprintf("linalg: cannot multiply %d×%d by %d×%d", m.rows, m.cols, b.rows, b.cols))
	}
	out := NewMatrix(m.rows, b.cols)
	for i := 0; i < m.rows; i++ {
		for k := 0; k < m.cols; k++ {
			a := m.data[i*m.cols+k]
			if a == 0 {
				continue
			}
			brow := b.data[k*b.cols : (k+1)*b.cols]
			orow := out.data[i*out.cols : (i+1)*out.cols]
			for j, bv := range brow {
				orow[j] += float64(a * bv)
			}
		}
	}
	return out
}

// randomSPD builds a random symmetric positive definite n×n matrix.
func randomSPD(rng *rand.Rand, n int) *Matrix {
	b := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			b.Set(i, j, rng.NormFloat64())
		}
	}
	a := b.Mul(b.Transpose())
	a.AddDiag(float64(n)) // ensure well-conditioned
	return a
}

func TestCholeskyReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 3, 5, 10, 40} {
		a := randomSPD(rng, n)
		ch, err := NewCholesky(a)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		l := ch.L()
		recon := l.Mul(l.Transpose())
		if !recon.Equal(a, 1e-8) {
			t.Errorf("n=%d: L·Lᵀ does not reconstruct A", n)
		}
	}
}

func TestCholeskyKnown2x2(t *testing.T) {
	// A = [[4,2],[2,3]] ⇒ L = [[2,0],[1,sqrt2]]
	a := NewMatrixFromRows([][]float64{{4, 2}, {2, 3}})
	ch, err := NewCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	l := ch.L()
	if math.Abs(l.At(0, 0)-2) > 1e-12 || math.Abs(l.At(1, 0)-1) > 1e-12 ||
		math.Abs(l.At(1, 1)-math.Sqrt(2)) > 1e-12 || l.At(0, 1) != 0 {
		t.Errorf("L = %v", l)
	}
}

func TestCholeskyNotPD(t *testing.T) {
	a := NewMatrixFromRows([][]float64{{1, 2}, {2, 1}}) // eigenvalues 3, -1
	if _, err := NewCholesky(a); err == nil {
		t.Fatal("expected error for indefinite matrix")
	}
}

func TestCholeskyNonSquare(t *testing.T) {
	if _, err := NewCholesky(NewMatrix(2, 3)); err == nil {
		t.Fatal("expected error for non-square matrix")
	}
}

func TestCholeskyJittered(t *testing.T) {
	// Rank-deficient PSD matrix: outer product of [1,1].
	a := NewMatrixFromRows([][]float64{{1, 1}, {1, 1}})
	ch, jitter, err := NewCholeskyJittered(a, 1e-10, 12)
	if err != nil {
		t.Fatal(err)
	}
	if jitter <= 0 {
		t.Errorf("expected positive jitter, got %g", jitter)
	}
	if ch.Size() != 2 {
		t.Errorf("Size = %d", ch.Size())
	}
	// A well-conditioned matrix should need no jitter.
	_, jitter, err = NewCholeskyJittered(Identity(3), 1e-10, 5)
	if err != nil || jitter != 0 {
		t.Errorf("identity needed jitter %g, err %v", jitter, err)
	}
}

func TestSolveVec(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{1, 2, 5, 20} {
		a := randomSPD(rng, n)
		ch, err := NewCholesky(a)
		if err != nil {
			t.Fatal(err)
		}
		want := make([]float64, n)
		for i := range want {
			want[i] = rng.NormFloat64()
		}
		b := a.MulVec(want)
		got := ch.BackwardSolve(ch.ForwardSolve(b))
		for i := range got {
			if math.Abs(got[i]-want[i]) > 1e-8 {
				t.Fatalf("n=%d: solution mismatch at %d: %g vs %g", n, i, got[i], want[i])
			}
		}
	}
}

func TestLogDet(t *testing.T) {
	// diag(2,3,4): logdet = log 24.
	a := NewMatrix(3, 3)
	a.Set(0, 0, 2)
	a.Set(1, 1, 3)
	a.Set(2, 2, 4)
	ch, err := NewCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := ch.LogDet(), math.Log(24); math.Abs(got-want) > 1e-12 {
		t.Errorf("LogDet = %g, want %g", got, want)
	}
}

func TestQuadForm(t *testing.T) {
	a := NewMatrixFromRows([][]float64{{2, 0}, {0, 4}})
	ch, err := NewCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	// bᵀA⁻¹b for b=[2,2]: 4/2 + 4/4 = 3.
	if got := ch.QuadForm([]float64{2, 2}); math.Abs(got-3) > 1e-12 {
		t.Errorf("QuadForm = %g, want 3", got)
	}
}

// Property: for random SPD matrices, the two triangular solves invert MulVec.
func TestQuickCholeskySolveInverts(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%15) + 1
		rng := rand.New(rand.NewSource(seed))
		a := randomSPD(rng, n)
		ch, err := NewCholesky(a)
		if err != nil {
			return false
		}
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		got := ch.BackwardSolve(ch.ForwardSolve(a.MulVec(x)))
		for i := range x {
			if math.Abs(got[i]-x[i]) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: transpose is an involution.
func TestQuickTransposeInvolution(t *testing.T) {
	f := func(seed int64, rRaw, cRaw uint8) bool {
		r, c := int(rRaw%8)+1, int(cRaw%8)+1
		rng := rand.New(rand.NewSource(seed))
		m := NewMatrix(r, c)
		for i := 0; i < r; i++ {
			for j := 0; j < c; j++ {
				m.Set(i, j, rng.NormFloat64())
			}
		}
		return m.Transpose().Transpose().Equal(m, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: QuadForm is always non-negative for SPD matrices.
func TestQuickQuadFormNonNegative(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%10) + 1
		rng := rand.New(rand.NewSource(seed))
		a := randomSPD(rng, n)
		ch, err := NewCholesky(a)
		if err != nil {
			return false
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		return ch.QuadForm(b) >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func BenchmarkCholesky50(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	a := randomSPD(rng, 50)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewCholesky(a); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSolveVec50(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	a := randomSPD(rng, 50)
	ch, err := NewCholesky(a)
	if err != nil {
		b.Fatal(err)
	}
	v := make([]float64, 50)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ch.BackwardSolve(ch.ForwardSolve(v))
	}
}

func mustPanic(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Error("no panic")
		}
	}()
	f()
}

// ForwardSolveBatch must agree with per-column ForwardSolve exactly.
func TestForwardSolveBatchMatchesPerColumn(t *testing.T) {
	// A symmetric positive definite matrix with non-trivial off-diagonals.
	a := NewMatrixFromRows([][]float64{
		{4, 2, 0.6, 1},
		{2, 5, 1.2, 0.4},
		{0.6, 1.2, 3, 0.2},
		{1, 0.4, 0.2, 2},
	})
	ch, err := NewCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	n, cols := 4, 3
	cols64 := []([]float64){
		{1, 0, 0, 0},
		{0.5, -2, 3, 7},
		{1e-3, 4, -5, 0.25},
	}
	b := make([]float64, n*cols)
	for j, col := range cols64 {
		for i := 0; i < n; i++ {
			b[i*cols+j] = col[i]
		}
	}
	z := ch.ForwardSolveBatch(b, cols)
	for j, col := range cols64 {
		want := ch.ForwardSolve(col)
		for i := 0; i < n; i++ {
			if got := z[i*cols+j]; got != want[i] {
				t.Errorf("column %d element %d: batch %g vs solve %g", j, i, got, want[i])
			}
		}
	}
	// Shape violations are programming errors.
	mustPanic(t, func() { ch.ForwardSolveBatch(b, 0) })
	mustPanic(t, func() { ch.ForwardSolveBatch(b[:5], cols) })
}

// A block solved one row at a time while the factor grows under it must be
// the block ForwardSolveBatch solves against the finished factor, bit for
// bit: rows already solved never depend on factor rows appended later.
func TestAppendSolvedRowTracksExtend(t *testing.T) {
	const n, cols = 13, 5
	rng := rand.New(rand.NewSource(9))
	g := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			g.Set(i, j, rng.NormFloat64())
		}
	}
	a := g.Mul(g.Transpose()).AddDiag(0.5) // G·Gᵀ + ½I is positive definite
	b := make([]float64, n*cols)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	ch := &Cholesky{}
	var z [][]float64
	for i := 0; i < n; i++ {
		if err := ch.Extend(a.RowView(i)[:i+1]); err != nil {
			t.Fatal(err)
		}
		if i%3 == 2 {
			continue // let the block fall several rows behind the factor
		}
		for have := len(z); have <= i; have++ {
			z = ch.AppendSolvedRow(z, b[have*cols:(have+1)*cols])
		}
	}
	want := ch.ForwardSolveBatch(b, cols)
	if len(z)*cols != len(want) {
		t.Fatalf("incremental block has %d rows, want %d", len(z), len(want)/cols)
	}
	for i, v := range want {
		if got := z[i/cols][i%cols]; math.Float64bits(got) != math.Float64bits(v) {
			t.Fatalf("element %d: incremental %g vs batch %g", i, got, v)
		}
	}
	ragged := append([][]float64{z[0][:cols-1]}, z[1:7]...)
	mustPanic(t, func() { ch.AppendSolvedRow(z, b[:cols]) })      // block already has Size() rows
	mustPanic(t, func() { ch.AppendSolvedRow(ragged, b[:cols]) }) // ragged block
	mustPanic(t, func() { ch.AppendSolvedRow(nil, nil) })         // no columns
}
