//go:build !amd64

package linalg

// solveRowKernel is the portable loop on every architecture without the
// AVX2 kernel; see rowkernel_amd64.go.
func solveRowKernel(dst []float64, z [][]float64, row []float64) {
	solveRowGo(dst, z, row)
}
