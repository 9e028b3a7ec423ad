package trainsim

import (
	"testing"

	"repro/internal/cpufeat"
)

func fillLanesAVX2Step(vec *[rngLen]uint64, lanes *[3][4]uint64, cooked *[rngLen]uint64) {
	fillLanesAVX2(vec, lanes, cooked, lehmerA12)
}

// The AVX2 kernel and the Go lanes fill the same register words and leave
// the same lanes behind, for every seed the stream is checked on.
func TestFillLanesAVX2MatchesGo(t *testing.T) {
	if !cpufeat.AVX2 {
		t.Skip("CPU has no AVX2: fillLanes is fillLanesGo")
	}
	var got, want [rngLen]uint64
	for _, seed := range equivalenceSeeds(3000) {
		gl := seedLanes(seed)
		wl := gl
		fillLanesAVX2Step(&got, &gl, &rngCooked)
		fillLanesGo(&want, &wl, &rngCooked)
		if got != want || gl != wl {
			t.Fatalf("seed %d: the AVX2 kernel and the Go lanes fill different registers", seed)
		}
	}
}

func BenchmarkSourceSeed(b *testing.B) {
	b.Run("go", func(b *testing.B) { benchmarkSeed(b, fillLanesGo) })
	if cpufeat.AVX2 {
		b.Run("avx2", func(b *testing.B) { benchmarkSeed(b, fillLanesAVX2Step) })
	}
}
