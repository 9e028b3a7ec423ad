package linalg

import (
	"fmt"

	"repro/internal/cpufeat"
)

// solveRowKernel is solveRowGo, run by solveRowAVX2 when the CPU has AVX2.
// The assembly performs solveRowGo's operations on the same operands in the
// same order — a rounded multiply, then a subtract, four coefficients per
// pass in increasing k, the same zero skip, then one divide by the pivot;
// no FMA and no reordered sum — four columns to a YMM register and the
// tail with VEX scalar ops, so its result is bit for bit solveRowGo's.
//
// The assembly trusts n = len(dst): every row of z is checked here to hold
// at least n floats, and row to hold the pivot.
func solveRowKernel(dst []float64, z [][]float64, row []float64) {
	if !cpufeat.AVX2 {
		solveRowGo(dst, z, row)
		return
	}
	n := len(dst)
	row = row[:len(z)+1]
	for k, zk := range z {
		if len(zk) < n {
			panic(fmt.Sprintf("linalg: solved row %d has %d columns, want %d", k, len(zk), n))
		}
	}
	solveRowAVX2(dst, z, row)
}

// solveRowAVX2 computes solveRowGo(dst, z, row) with AVX2; see
// rowkernel_amd64.s. The caller guarantees len(z[k]) ≥ len(dst) for every
// k and len(row) > len(z).
//
//go:noescape
func solveRowAVX2(dst []float64, z [][]float64, row []float64)
