package linalg

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The tests in this file pin bit-identity between the fast paths and the
// routines they replace: that identity, not a tolerance, is what lets the GP
// gather a factor row out of its solved block and lets callers mix the
// blocked row kernel with per-column solves.

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// solvedBlock solves the n×cols block b (row-major) against c row by row.
func solvedBlock(c *Cholesky, b []float64, cols int) [][]float64 {
	var z [][]float64
	for i := 0; i < c.Size(); i++ {
		z = c.AppendSolvedRow(z, b[i*cols:(i+1)*cols])
	}
	return z
}

// ExtendSolved, fed column k of a block whose right-hand side column k is
// the new row, must append the row Extend computes from the row itself —
// and reject the pivots Extend rejects, with the factor and the row left
// alone.
func TestExtendSolvedMatchesExtend(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(70)
		a := randSPD(rng, n+1)
		base := factorPrefix(t, a, n)
		row := extRow(a, n)
		const cols, k = 3, 1
		b := make([]float64, n*cols)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		for i := 0; i < n; i++ {
			b[i*cols+k] = row[i]
		}
		z := solvedBlock(base, b, cols)
		gather := func(diag float64) []float64 {
			y := make([]float64, n+1)
			for i, zi := range z {
				y[i] = zi[k]
			}
			y[n] = diag
			return y
		}

		slow, fast := base.Snapshot(), base.Snapshot()
		if err := slow.Extend(row); err != nil {
			t.Fatal(err)
		}
		if err := fast.ExtendSolved(gather(row[n])); err != nil {
			t.Fatal(err)
		}
		if !sameBits(slow.rows[n], fast.rows[n]) {
			t.Fatalf("seed %d n %d: gathered row differs from the solved one\n got  %v\n want %v", seed, n, fast.rows[n], slow.rows[n])
		}

		// Non-positive and NaN pivots: same error on both routes, nothing
		// appended, the caller's row untouched.
		var quad float64
		for _, v := range slow.rows[n][:n] {
			quad += v * v
		}
		for _, diag := range []float64{quad / 2, math.NaN()} {
			bad := append([]float64(nil), row...)
			bad[n] = diag
			slow, fast = base.Snapshot(), base.Snapshot()
			errSlow := slow.Extend(bad)
			y := gather(diag)
			kept := append([]float64(nil), y...)
			errFast := fast.ExtendSolved(y)
			if !errors.Is(errSlow, ErrNotPositiveDefinite) || !errors.Is(errFast, ErrNotPositiveDefinite) {
				t.Fatalf("seed %d diag %g: errors %v / %v, want ErrNotPositiveDefinite", seed, diag, errSlow, errFast)
			}
			if errSlow.Error() != errFast.Error() {
				t.Fatalf("seed %d diag %g: pivot reported as %q by Extend, %q by ExtendSolved", seed, diag, errSlow, errFast)
			}
			if fast.Size() != n || slow.Size() != n {
				t.Fatalf("seed %d diag %g: a rejected row was appended", seed, diag)
			}
			if !sameBits(y[:n], kept[:n]) || math.Float64bits(y[n]) != math.Float64bits(kept[n]) {
				t.Fatalf("seed %d diag %g: a rejected row was written", seed, diag)
			}
			sameFactor(t, base, fast, "factor after a rejected ExtendSolved")
		}
		if err := base.ExtendSolved(make([]float64, n)); err == nil {
			t.Fatal("short row accepted")
		}
	}
}

// plantZeros zeroes factor coefficients of row i: one inside a group of
// four, a run across a group boundary, and (when there is one) the scalar
// tail's first.
func plantZeros(c *Cholesky, i int) {
	row := c.rows[i]
	for _, k := range []int{1, 3, 4, 5, i - i%4} {
		if k < i {
			row[k] = 0
		}
	}
}

// The blocked kernel must equal per-column ForwardSolve bit for bit for
// every row length modulo four, with zero coefficients inside and across
// groups (the skip must mean the same on the blocked and the scalar route),
// and ForwardSolveBatch's flat result must be that block.
func TestSolveRowMatchesPerColumn(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(70)
		cols := 1 + rng.Intn(9)
		c := factorPrefix(t, randSPD(rng, n), n)
		if seed%2 == 1 {
			for i := 2; i < n; i += 1 + rng.Intn(3) {
				plantZeros(c, i)
			}
		}
		b := make([]float64, n*cols)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		z := solvedBlock(c, b, cols)
		flat := c.ForwardSolveBatch(b, cols)
		col := make([]float64, n)
		for j := 0; j < cols; j++ {
			for i := range col {
				col[i] = b[i*cols+j]
			}
			want := c.ForwardSolve(col)
			for i := range want {
				if math.Float64bits(z[i][j]) != math.Float64bits(want[i]) {
					t.Fatalf("seed %d n %d: Z[%d][%d] = %g, ForwardSolve gives %g", seed, n, i, j, z[i][j], want[i])
				}
			}
		}
		for i, zi := range z {
			if !sameBits(zi, flat[i*cols:(i+1)*cols]) {
				t.Fatalf("seed %d: ForwardSolveBatch row %d differs from the per-row block", seed, i)
			}
		}
		// AppendSolved is the one-column case, appended in place.
		var w []float64
		for i := 0; i < n; i++ {
			w = c.AppendSolved(w, col[i])
		}
		if !sameBits(w, c.ForwardSolve(col)) {
			t.Fatalf("seed %d: AppendSolved differs from ForwardSolve", seed)
		}
		mustPanic(t, func() { c.AppendSolved(w, 1) })
	}
}

// A capacity-clamped copy of the block's row pointers (what gp.Shadow
// takes) appends its own rows while the base appends others: neither side
// may see the other's rows, and the shared prefix stays what it was.
func TestSolvedBlockCopyOnWrite(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const n, cols = 12, 6
	a := randSPD(rng, n+3)
	base := factorPrefix(t, a, n)
	rows := func(count int) [][]float64 {
		out := make([][]float64, count)
		for i := range out {
			out[i] = make([]float64, cols)
			for j := range out[i] {
				out[i][j] = rng.NormFloat64()
			}
		}
		return out
	}
	shared, baseB, shadowB := rows(n), rows(3), rows(3)
	// Spare capacity in the base's pointer slice is what an unclamped copy
	// would write into.
	z := make([][]float64, 0, n+8)
	for i := 0; i < n; i++ {
		z = base.AppendSolvedRow(z, shared[i])
	}
	prefix := make([][]float64, n)
	for i, zi := range z {
		prefix[i] = append([]float64(nil), zi...)
	}
	shadow := base.Snapshot()
	sz := z[:n:n]

	// Both factors grow by the same rows; the right-hand sides differ, so
	// every appended block row says whose it is.
	for i := 0; i < 3; i++ {
		if err := base.Extend(extRow(a, n+i)); err != nil {
			t.Fatal(err)
		}
		z = base.AppendSolvedRow(z, baseB[i])
		if err := shadow.Extend(extRow(a, n+i)); err != nil {
			t.Fatal(err)
		}
		sz = shadow.AppendSolvedRow(sz, shadowB[i])
	}
	wantBase := solvedBlock(base, flatten(append(append([][]float64{}, shared...), baseB...)), cols)
	wantShadow := solvedBlock(shadow, flatten(append(append([][]float64{}, shared...), shadowB...)), cols)
	for i := 0; i < n+3; i++ {
		if !sameBits(z[i], wantBase[i]) {
			t.Fatalf("base row %d is not the base's own", i)
		}
		if !sameBits(sz[i], wantShadow[i]) {
			t.Fatalf("shadow row %d is not the shadow's own", i)
		}
		if i < n && !sameBits(z[i], prefix[i]) {
			t.Fatalf("shared row %d was written", i)
		}
	}
}

func flatten(rows [][]float64) []float64 {
	var out []float64
	for _, r := range rows {
		out = append(out, r...)
	}
	return out
}

// A zero coefficient skips its row outright — on the blocked route as on
// the scalar one — so a non-finite value under it does not reach the result
// (0·Inf would be NaN).
func TestSolveRowSkipsZeroCoefficients(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const n, cols = 11, 4
	c := factorPrefix(t, randSPD(rng, n), n)
	b := make([]float64, n*cols)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	z := solvedBlock(c, b, cols)[:n-1]
	last := c.rows[n-1]
	last[1], last[6], last[9] = 0, 0, 0 // inside two groups of four, and in the tail
	z[1][0], z[6][1], z[9][2] = math.Inf(1), math.NaN(), math.Inf(-1)
	got := c.AppendSolvedRow(z, b[(n-1)*cols:])[n-1]
	for j, v := range got {
		want := b[(n-1)*cols+j]
		for k := 0; k < n-1; k++ {
			if last[k] != 0 {
				want -= last[k] * z[k][j]
			}
		}
		want /= last[n-1]
		if math.Float64bits(v) != math.Float64bits(want) {
			t.Fatalf("column %d: %g, want %g", j, v, want)
		}
	}
}

// BenchmarkSolveRow times one row of a solved block — the per-observation
// posterior update — for K arms (columns) after t observations (rows), the
// shapes the paper's datasets give the GP. Allocation-free: it is pinned at
// 0 allocs/op.
func BenchmarkSolveRow(b *testing.B) {
	for _, k := range []int{4, 35, 179} {
		for _, t := range []int{20, 90} {
			b.Run(fmt.Sprintf("K=%d/t=%d", k, t), func(b *testing.B) {
				rng := rand.New(rand.NewSource(int64(k*1000 + t)))
				c := factorPrefix(b, randSPD(rng, t+1), t+1)
				rhs := make([]float64, (t+1)*k)
				for i := range rhs {
					rhs[i] = rng.NormFloat64()
				}
				z := solvedBlock(c, rhs, k)[:t]
				dst := make([]float64, k)
				b.ReportAllocs()
				for b.Loop() {
					c.solveRow(dst, z, rhs[t*k:])
				}
			})
		}
	}
}
