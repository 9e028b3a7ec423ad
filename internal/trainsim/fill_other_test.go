//go:build !amd64

package trainsim

import "testing"

func BenchmarkSourceSeed(b *testing.B) {
	b.Run("go", func(b *testing.B) { benchmarkSeed(b, fillLanesGo) })
}
