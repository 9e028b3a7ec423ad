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

// SqDistUpper writes SqDist(points[i], points[j]) into dst at (i, j) for
// every j ≥ i and leaves the strict lower triangle alone. Four partners
// share each sweep of a point, each with its own running sum in SqDist's
// order: SqDist's bits, four add chains in flight. It panics if dst is not
// n×n for n points or the points' lengths differ.
func SqDistUpper(dst *Matrix, points [][]float64) {
	n := len(points)
	if dst.rows != n || dst.cols != n {
		panic(fmt.Sprintf("linalg: SqDistUpper of %d points into a %d×%d matrix", n, dst.rows, dst.cols))
	}
	for i, x := range points {
		row, j := dst.data[i*n:(i+1)*n], i
		for ; j+4 <= n; j += 4 {
			a, b, c, d := points[j], points[j+1], points[j+2], points[j+3]
			if len(a) != len(x) || len(b) != len(x) || len(c) != len(x) || len(d) != len(x) {
				panic(fmt.Sprintf("linalg: SqDist length mismatch: %d vs %d, %d, %d, %d", len(x), len(a), len(b), len(c), len(d)))
			}
			var sa, sb, sc, sd float64
			for p, xp := range x {
				da, db, dc, dd := xp-a[p], xp-b[p], xp-c[p], xp-d[p]
				sa += float64(da * da)
				sb += float64(db * db)
				sc += float64(dc * dc)
				sd += float64(dd * dd)
			}
			row[j], row[j+1], row[j+2], row[j+3] = sa, sb, sc, sd
		}
		for ; j < n; j++ {
			row[j] = SqDist(x, points[j])
		}
	}
}

// MapUpper sets dst at (i, j) and (j, i) to f(m[i][j]) for every j ≥ i, in
// row order, and returns dst. dst may be m; m's strict lower triangle is
// never read. It panics if m is not square or dst's shape differs.
func (m *Matrix) MapUpper(dst *Matrix, f func(float64) float64) *Matrix {
	n := m.rows
	if m.cols != n || dst.rows != n || dst.cols != n {
		panic(fmt.Sprintf("linalg: MapUpper of a %d×%d matrix into a %d×%d one", m.rows, m.cols, dst.rows, dst.cols))
	}
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := f(m.data[i*n+j])
			dst.data[i*n+j], dst.data[j*n+i] = v, v
		}
	}
	return dst
}
