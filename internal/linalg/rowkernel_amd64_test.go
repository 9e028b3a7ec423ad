package linalg

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/cpufeat"
)

// rowKernelValues are the operands that tell an FMA, a reordered sum or a
// reciprocal apart from the portable loop, and the ones whose zero skip
// shows (0·Inf is NaN).
var rowKernelValues = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.1, 3,
	math.Inf(1), math.Inf(-1), math.NaN(),
	5e-324, -2.5e-320, 2.2250738585072014e-308,
	1e300, -1e300, 1e-300,
}

// The AVX2 row kernel against solveRowGo, both called directly, bit for
// bit (a NaN matches any NaN). Lengths 0–67 cover the four-wide body and
// every tail; up to 12 solved rows cover four-coefficient groups, groups
// holding a zero and the single-coefficient tail. Operands mix random
// normals with the special values above at a rate the fuzzer chooses.
func FuzzRowKernel(f *testing.F) {
	if !cpufeat.AVX2 {
		f.Skip("CPU has no AVX2: solveRowKernel is solveRowGo")
	}
	for _, seed := range [][4]int64{
		{0, 0, 1, 0}, {1, 1, 2, 40}, {3, 4, 3, 128}, {4, 5, 4, 255},
		{7, 8, 5, 200}, {8, 9, 6, 60}, {31, 11, 7, 90}, {67, 12, 8, 255},
		{64, 3, 9, 30}, {17, 7, 10, 0},
	} {
		f.Add(uint8(seed[0]), uint8(seed[1]), seed[2], uint8(seed[3]))
	}
	f.Fuzz(func(t *testing.T, cols, rows uint8, seed int64, special uint8) {
		n, i := int(cols)%68, int(rows)%13
		rng := rand.New(rand.NewSource(seed))
		draw := func() float64 {
			if rng.Intn(256) < int(special) {
				return rowKernelValues[rng.Intn(len(rowKernelValues))]
			}
			return rng.NormFloat64()
		}
		z := make([][]float64, i)
		for k := range z {
			z[k] = make([]float64, n)
			for j := range z[k] {
				z[k][j] = draw()
			}
		}
		row := make([]float64, i+1)
		for k := range row {
			row[k] = draw()
		}
		want := make([]float64, n)
		for j := range want {
			want[j] = draw()
		}
		got := append([]float64(nil), want...)
		solveRowGo(want, z, row)
		solveRowAVX2(got, z, row)
		for j := range want {
			w, g := want[j], got[j]
			if math.Float64bits(w) != math.Float64bits(g) && !(math.IsNaN(w) && math.IsNaN(g)) {
				t.Fatalf("n %d, %d rows, column %d: AVX2 %g (%#x), Go %g (%#x)\nrow %v",
					n, i, j, g, math.Float64bits(g), w, math.Float64bits(w), row)
			}
		}
	})
}

// The Go side checks what the assembly trusts: a solved row shorter than
// dst panics before the call instead of reading past its end.
func TestRowKernelChecksRowLengths(t *testing.T) {
	z := [][]float64{{1, 2, 3, 4}, {1, 2, 3}}
	mustPanic(t, func() { solveRowKernel(make([]float64, 4), z, []float64{1, 1, 1}) })
	mustPanic(t, func() { solveRowKernel(make([]float64, 3), z, []float64{1, 1}) })
}
