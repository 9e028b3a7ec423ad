// Package linalg provides the small dense linear-algebra kernel that the
// Gaussian-Process machinery in this repository is built on: dense matrices,
// Cholesky factorization, triangular solves and a handful of vector helpers.
//
// The package is deliberately minimal — everything the GP posterior
// (internal/gp) and the synthetic data generator (internal/synth) need, and
// nothing more. Matrices are small (at most a few hundred rows: one row per
// observation or per candidate model), so the implementations favour clarity
// and numerical robustness over blocking or SIMD tricks; the one SIMD kernel,
// solveRow's AVX2 form on amd64, computes the portable loop's bits.
//
// Every product that feeds a sum is written float64(x*y), which the Go spec
// forbids a compiler to fuse into an FMA (arm64 otherwise would), so every
// architecture computes the same bits.
package linalg

import (
	"fmt"
	"math"
	"strings"
)

// Matrix is a dense, row-major matrix of float64 values.
//
// The zero value is an empty 0×0 matrix. Use NewMatrix or one of the
// constructors to create a sized matrix.
type Matrix struct {
	rows, cols int
	data       []float64 // len == rows*cols, row-major
}

// NewMatrix returns a zero-initialized rows×cols matrix.
// It panics if either dimension is negative.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("linalg: invalid dimensions %d×%d", rows, cols))
	}
	return &Matrix{rows: rows, cols: cols, data: make([]float64, rows*cols)}
}

// NewMatrixFromRows builds a matrix from a slice of equal-length rows.
// It panics if the rows are ragged.
func NewMatrixFromRows(rows [][]float64) *Matrix {
	if len(rows) == 0 {
		return NewMatrix(0, 0)
	}
	cols := len(rows[0])
	m := NewMatrix(len(rows), cols)
	for i, r := range rows {
		if len(r) != cols {
			panic(fmt.Sprintf("linalg: ragged rows: row 0 has %d cols, row %d has %d", cols, i, len(r)))
		}
		copy(m.data[i*cols:(i+1)*cols], r)
	}
	return m
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Matrix) Cols() int { return m.cols }

// At returns the element at row i, column j.
func (m *Matrix) At(i, j int) float64 {
	m.check(i, j)
	return m.data[i*m.cols+j]
}

// Set assigns the element at row i, column j.
func (m *Matrix) Set(i, j int, v float64) {
	m.check(i, j)
	m.data[i*m.cols+j] = v
}

// Add adds v to the element at row i, column j.
func (m *Matrix) Add(i, j int, v float64) {
	m.check(i, j)
	m.data[i*m.cols+j] += v
}

func (m *Matrix) check(i, j int) {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("linalg: index (%d,%d) out of range for %d×%d matrix", i, j, m.rows, m.cols))
	}
}

// Row returns a copy of row i.
func (m *Matrix) Row(i int) []float64 {
	out := make([]float64, m.cols)
	copy(out, m.RowView(i))
	return out
}

// RowView returns row i without copying. The returned slice is the
// matrix's backing storage — callers must treat it as read-only.
func (m *Matrix) RowView(i int) []float64 {
	if i < 0 || i >= m.rows {
		panic(fmt.Sprintf("linalg: row %d out of range for %d×%d matrix", i, m.rows, m.cols))
	}
	return m.data[i*m.cols : (i+1)*m.cols : (i+1)*m.cols]
}

// Col returns a copy of column j.
func (m *Matrix) Col(j int) []float64 {
	if j < 0 || j >= m.cols {
		panic(fmt.Sprintf("linalg: col %d out of range for %d×%d matrix", j, m.rows, m.cols))
	}
	out := make([]float64, m.rows)
	for i := 0; i < m.rows; i++ {
		out[i] = m.data[i*m.cols+j]
	}
	return out
}

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.rows, m.cols)
	copy(c.data, m.data)
	return c
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

// MulVec returns the matrix-vector product m·x. It panics if len(x) != Cols.
func (m *Matrix) MulVec(x []float64) []float64 {
	if m.cols != len(x) {
		panic(fmt.Sprintf("linalg: cannot multiply %d×%d by vector of length %d", m.rows, m.cols, len(x)))
	}
	out := make([]float64, m.rows)
	for i := 0; i < m.rows; i++ {
		row := m.data[i*m.cols : (i+1)*m.cols]
		var s float64
		for j, v := range row {
			s += float64(v * x[j])
		}
		out[i] = s
	}
	return out
}

// Scale multiplies every element of m by s in place and returns m.
func (m *Matrix) Scale(s float64) *Matrix {
	for i := range m.data {
		m.data[i] *= s
	}
	return m
}

// AddDiag adds v to every diagonal element in place and returns m.
// It panics if m is not square.
func (m *Matrix) AddDiag(v float64) *Matrix {
	if m.rows != m.cols {
		panic(fmt.Sprintf("linalg: AddDiag on non-square %d×%d matrix", m.rows, m.cols))
	}
	for i := 0; i < m.rows; i++ {
		m.data[i*m.cols+i] += v
	}
	return m
}

// Diag returns a copy of the main diagonal. It panics if m is not square.
func (m *Matrix) Diag() []float64 {
	if m.rows != m.cols {
		panic(fmt.Sprintf("linalg: Diag on non-square %d×%d matrix", m.rows, m.cols))
	}
	d := make([]float64, m.rows)
	for i := 0; i < m.rows; i++ {
		d[i] = m.data[i*m.cols+i]
	}
	return d
}

// Symmetrize replaces m with (m + mᵀ)/2 in place and returns m.
// Useful to clean up tiny asymmetries before a Cholesky factorization.
func (m *Matrix) Symmetrize() *Matrix {
	if m.rows != m.cols {
		panic(fmt.Sprintf("linalg: Symmetrize on non-square %d×%d matrix", m.rows, m.cols))
	}
	for i := 0; i < m.rows; i++ {
		for j := i + 1; j < m.cols; j++ {
			v := (m.data[i*m.cols+j] + m.data[j*m.cols+i]) / 2
			m.data[i*m.cols+j] = v
			m.data[j*m.cols+i] = v
		}
	}
	return m
}

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

// Equal reports whether m and b have the same shape and all elements are
// within tol of each other.
func (m *Matrix) Equal(b *Matrix, tol float64) bool {
	if m.rows != b.rows || m.cols != b.cols {
		return false
	}
	for i := range m.data {
		if math.Abs(m.data[i]-b.data[i]) > tol {
			return false
		}
	}
	return true
}

// String renders the matrix for debugging.
func (m *Matrix) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%d×%d[", m.rows, m.cols)
	for i := 0; i < m.rows; i++ {
		if i > 0 {
			sb.WriteString("; ")
		}
		for j := 0; j < m.cols; j++ {
			if j > 0 {
				sb.WriteByte(' ')
			}
			fmt.Fprintf(&sb, "%.6g", m.data[i*m.cols+j])
		}
	}
	sb.WriteByte(']')
	return sb.String()
}

// Dot returns the inner product of two equal-length vectors.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("linalg: Dot length mismatch %d vs %d", len(a), len(b)))
	}
	var s float64
	for i := range a {
		s += float64(a[i] * b[i])
	}
	return s
}

// Norm2 returns the Euclidean norm of v.
func Norm2(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += float64(x * x)
	}
	return math.Sqrt(s)
}

// SqDist returns the squared Euclidean distance between two equal-length
// vectors.
func SqDist(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("linalg: SqDist length mismatch %d vs %d", len(a), len(b)))
	}
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += float64(d * d)
	}
	return s
}

// AXPY computes y += a*x in place. It panics on a length mismatch.
func AXPY(a float64, x, y []float64) {
	if len(x) != len(y) {
		panic(fmt.Sprintf("linalg: AXPY length mismatch %d vs %d", len(x), len(y)))
	}
	for i := range x {
		y[i] += float64(a * x[i])
	}
}
