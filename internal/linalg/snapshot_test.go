package linalg

import (
	"fmt"
	"math/rand"
	"testing"
)

// randSPD builds a random symmetric positive definite n×n matrix
// A = BᵀB + n·I.
func randSPD(rng *rand.Rand, n int) *Matrix {
	b := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			b.Set(i, j, rng.NormFloat64())
		}
	}
	a := b.Transpose().Mul(b).AddDiag(float64(n))
	return a
}

// extRow returns the last row of a's leading (n+1)×(n+1) block, the input
// Extend expects when growing a size-n factor of a's leading block.
func extRow(a *Matrix, n int) []float64 {
	row := make([]float64, n+1)
	for j := 0; j <= n; j++ {
		row[j] = a.At(n, j)
	}
	return row
}

func factorPrefix(t testing.TB, a *Matrix, n int) *Cholesky {
	t.Helper()
	c := &Cholesky{}
	for i := 0; i < n; i++ {
		if err := c.Extend(extRow(a, i)); err != nil {
			t.Fatalf("Extend row %d: %v", i, err)
		}
	}
	return c
}

func sameFactor(t *testing.T, want, got *Cholesky, label string) {
	t.Helper()
	if want.Size() != got.Size() {
		t.Fatalf("%s: size %d vs %d", label, got.Size(), want.Size())
	}
	wl, gl := want.L(), got.L()
	for i := 0; i < want.Size(); i++ {
		for j := 0; j <= i; j++ {
			if wl.At(i, j) != gl.At(i, j) {
				t.Fatalf("%s: L[%d,%d] = %g, want %g (bit-exact)", label, i, j, gl.At(i, j), wl.At(i, j))
			}
		}
	}
}

// A snapshot must be bit-identical to the base at creation, and both sides
// must evolve independently (and bit-identically to from-scratch factors)
// after diverging Extends.
func TestSnapshotSharesPrefixAndDiverges(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n = 12
	a := randSPD(rng, n+4)
	base := factorPrefix(t, a, n)
	shadow := base.Snapshot()
	sameFactor(t, base, shadow, "fresh snapshot")

	// Base extends with the true next row; the shadow extends with a
	// diagonal-boosted variant (still PD) — the COW discipline must keep
	// the two fully independent.
	shadowRow := extRow(a, n)
	shadowRow[n] += 10
	if err := base.Extend(extRow(a, n)); err != nil {
		t.Fatal(err)
	}
	if err := shadow.Extend(shadowRow); err != nil {
		t.Fatal(err)
	}
	wantBase := factorPrefix(t, a, n+1)
	sameFactor(t, wantBase, base, "base after divergence")

	wantShadow := factorPrefix(t, a, n)
	if err := wantShadow.Extend(append([]float64(nil), shadowRow...)); err != nil {
		t.Fatal(err)
	}
	sameFactor(t, wantShadow, shadow, "shadow after divergence")
}

// The base growing first must not leak its new rows into a snapshot taken
// earlier, even though the two share backing storage for the prefix.
func TestSnapshotSurvivesBaseExtend(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	const n = 10
	a := randSPD(rng, n+6)
	base := factorPrefix(t, a, n)
	shadow := base.Snapshot()
	for i := n; i < n+4; i++ {
		if err := base.Extend(extRow(a, i)); err != nil {
			t.Fatal(err)
		}
	}
	if shadow.Size() != n {
		t.Fatalf("shadow grew to %d with the base", shadow.Size())
	}
	sameFactor(t, factorPrefix(t, a, n), shadow, "snapshot after base extends")

	// And the shadow can still extend on its own afterwards.
	if err := shadow.Extend(extRow(a, n)); err != nil {
		t.Fatal(err)
	}
	sameFactor(t, factorPrefix(t, a, n+1), shadow, "snapshot extend after base extends")
}

func TestTruncateRollsBack(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	const n = 9
	a := randSPD(rng, n)
	c := factorPrefix(t, a, n)
	snap := c.Snapshot()
	c.Truncate(5)
	if c.Size() != 5 {
		t.Fatalf("Size after Truncate = %d", c.Size())
	}
	sameFactor(t, factorPrefix(t, a, 5), c, "truncated factor")
	// Re-extending after the rollback must not corrupt the earlier
	// snapshot's view of the dropped rows. The replacement rows take a's
	// rows with a boosted diagonal (adding a PSD diagonal keeps the matrix
	// PD), so the Extends are guaranteed to succeed while writing different
	// values than the rows Truncate dropped.
	for i := 5; i < n; i++ {
		row := extRow(a, i)
		row[i] += 10
		if err := c.Extend(row); err != nil {
			t.Fatal(err)
		}
	}
	sameFactor(t, factorPrefix(t, a, n), snap, "snapshot after truncate+extend")
}

func TestTruncateOutOfRangePanics(t *testing.T) {
	c := &Cholesky{}
	if err := c.Extend([]float64{4}); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []int{-1, 2} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Truncate(%d) did not panic", bad)
				}
			}()
			c.Truncate(bad)
		}()
	}
}

// Snapshot creation must not copy the factor: allocations stay constant as
// the factor grows.
func TestSnapshotAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for _, n := range []int{4, 64} {
		a := randSPD(rng, n)
		c := factorPrefix(t, a, n)
		allocs := testing.AllocsPerRun(100, func() {
			_ = c.Snapshot()
		})
		if allocs > 1 {
			t.Fatalf("Snapshot of size-%d factor allocates %g objects, want ≤1", n, allocs)
		}
	}
}

// NewCholesky carves its rows out of one backing array. The factor must be
// the one Extend builds row by row, bit for bit, and the rows must be
// capacity-clamped: an Extend on the factor and on a snapshot of it each
// append a row of their own, leaving the other side's rows alone.
func TestCarvedFactorMatchesExtendAndStaysPrivate(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, n := range []int{1, 2, 7, 35} {
		a := randSPD(rng, n+2)
		lead := NewMatrix(n, n)
		for i := range n {
			for j := range n {
				lead.Set(i, j, a.At(i, j))
			}
		}
		c, err := NewCholesky(lead)
		if err != nil {
			t.Fatal(err)
		}
		sameFactor(t, factorPrefix(t, a, n), c, "NewCholesky")
		for i, row := range c.rows {
			if len(row) != i+1 || cap(row) != i+1 {
				t.Fatalf("n=%d: row %d has len %d cap %d", n, i, len(row), cap(row))
			}
		}
		snap := c.Snapshot()
		if err := c.Extend(extRow(a, n)); err != nil {
			t.Fatal(err)
		}
		if err := snap.Extend(extRow(a, n)); err != nil {
			t.Fatal(err)
		}
		if err := c.Extend(extRow(a, n+1)); err != nil {
			t.Fatal(err)
		}
		sameFactor(t, factorPrefix(t, a, n+2), c, "extended factor")
		sameFactor(t, factorPrefix(t, a, n+1), snap, "extended snapshot")
	}
}

// NewCholeskyJitteredAt reads a principal submatrix with a shifted diagonal
// in place. Its factor and jitter must be those of factorizing the shifted
// copy, bit for bit, on the first try and after jitter escalation alike.
func TestJitteredAtMatchesShiftedCopy(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := randSPD(rng, 9)
	// Arms 2 and 6 form an all-4 block coupled to nothing else: any index
	// set holding both is exactly singular, so its shift-free factor needs
	// jitter.
	for j := range 9 {
		for _, k := range []int{2, 6} {
			a.Set(k, j, 0)
			a.Set(j, k, 0)
		}
	}
	for _, k := range []int{2, 6} {
		a.Set(k, 2, 4)
		a.Set(k, 6, 4)
	}
	jittered := 0
	for _, tc := range []struct {
		idx   []int
		shift float64
	}{
		{nil, 1e-4},
		{[]int{0, 1, 2, 3, 4, 5, 6, 7, 8}, 0},
		{[]int{4, 2, 8, 6, 1}, 0},
		{[]int{4, 2, 8, 6, 1}, 1e-4},
		{[]int{3, 3, 5}, 1e-4},
	} {
		idx := tc.idx
		if idx == nil {
			idx = []int{0, 1, 2, 3, 4, 5, 6, 7, 8}
		}
		want, wantJit, wantErr := NewCholeskyJittered(a.Submatrix(idx, idx).AddDiag(tc.shift), 1e-10, 12)
		got, gotJit, gotErr := NewCholeskyJitteredAt(a, tc.idx, tc.shift, 1e-10, 12)
		if (wantErr == nil) != (gotErr == nil) || wantJit != gotJit {
			t.Fatalf("idx %v shift %g: jitter %g err %v, want jitter %g err %v", tc.idx, tc.shift, gotJit, gotErr, wantJit, wantErr)
		}
		if wantErr == nil {
			sameFactor(t, want, got, fmt.Sprintf("idx %v shift %g", tc.idx, tc.shift))
		}
		if gotJit > 0 {
			jittered++
		}
	}
	if jittered == 0 {
		t.Error("no case took the jitter path")
	}
}
