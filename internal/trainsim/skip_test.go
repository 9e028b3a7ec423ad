package trainsim

import (
	"math/rand"
	"testing"
)

// Each layer's recovered strip is where math/rand's NormFloat64 switches:
// the first and last draws of the layer inside it are accepted in one
// read, and the draws just outside it are not.
func TestStripsPinTheZiggurat(t *testing.T) {
	var probe oneDraw
	rng := rand.New(&probe)
	accepts := func(j int64) bool { return probeAccepts(rng, &probe, int32(j)) }
	for i, st := range strips {
		lo, end := int64(st.lo), int64(st.lo)+int64(st.width)
		if st.width == 0 {
			if accepts(int64(i)) || accepts(int64(i)-128) {
				t.Errorf("layer %d: empty strip, but NormFloat64 accepts a draw next to 0", i)
			}
			continue
		}
		if lo&0x7F != int64(i) || lo > 0 || end <= 0 {
			t.Fatalf("layer %d: strip [%d, %d) is not a run of the layer's draws around 0", i, lo, end)
		}
		if !accepts(lo) || !accepts(end-128) {
			t.Errorf("layer %d: NormFloat64 rejects an end of its strip [%d, %d)", i, lo, end)
		}
		if accepts(lo-128) || accepts(end) {
			t.Errorf("layer %d: NormFloat64 accepts a draw just outside its strip [%d, %d)", i, lo, end)
		}
	}
	// And on draws anywhere: the strip test is NormFloat64's.
	spread := rand.New(rand.NewSource(5))
	for n := 0; n < 200000; n++ {
		j := int32(spread.Uint32())
		st := strips[j&0x7F]
		if got, want := uint32(j-st.lo) < st.width, accepts(int64(j)); got != want {
			t.Fatalf("draw %#x: strip test says %v, NormFloat64 says %v", j, got, want)
		}
	}
}

// rejectedLayers replays one run's draws on rand.NewSource and returns the
// layers of the NormFloat64 draws rejected in the epochs skip consumes.
func rejectedLayers(sim *Simulator, task, model int) []int {
	c := &countingSource{src: rand.NewSource(sim.cfg.Seed ^ int64(task)*1000003 ^ int64(model)*7919)}
	rng := rand.New(c)
	m := sim.cfg.Models[model]
	var layers []int
	for _, lr := range sim.cfg.LearningRates {
		diverged := lr > m.BestLR*50 && rng.Float64() < 0.5
		for e := 1; e <= sim.cfg.Epochs; e++ {
			if diverged {
				rng.Float64()
			}
			c.reads = 0
			rng.NormFloat64()
			if c.reads > 1 && e < sim.cfg.Epochs {
				layers = append(layers, int(int32(c.first>>31)&0x7F))
			}
		}
	}
	return layers
}

type countingSource struct {
	src   rand.Source
	reads int
	first int64
}

func (c *countingSource) Int63() int64 {
	v := c.src.Int63()
	if c.reads++; c.reads == 1 {
		c.first = v
	}
	return v
}

func (c *countingSource) Seed(seed int64) { c.src.Seed(seed) }

// Runs whose skipped epochs hold rejected draws — in the tail layer 0,
// whose fallback draws two Float64s per try, and in a layer above it,
// whose fallback draws one — take the fallback through rng and still
// equal the rand.NewSource reference bit for bit.
func TestSkipFallbackMatchesStdlib(t *testing.T) {
	var tail, upper int
	for seed := int64(1); seed <= 400 && (tail < 3 || upper < 3); seed++ {
		sim := equivalenceSim(t, seed, false)
		for task := 0; task < len(sim.cfg.Tasks); task++ {
			for model := 0; model < len(sim.cfg.Models); model++ {
				layers := rejectedLayers(sim, task, model)
				var hasTail, hasUpper bool
				for _, l := range layers {
					hasTail, hasUpper = hasTail || l == 0, hasUpper || l > 0
				}
				if !hasTail && !hasUpper {
					continue
				}
				if what := resultDiff(sim.Train(task, model), referenceTrain(sim, task, model)); what != "" {
					t.Fatalf("seed %d, task %d, model %d (rejections in layers %v): %s differs from the rand.NewSource reference",
						seed, task, model, layers, what)
				}
				if hasTail {
					tail++
				}
				if hasUpper {
					upper++
				}
			}
		}
	}
	if tail < 3 || upper < 3 {
		t.Fatalf("found %d runs with a skipped tail rejection and %d with an upper-layer one, want 3 of each", tail, upper)
	}
}

// A Float64 draw that rounds to 1 is redrawn by math/rand; no seed
// reaches one in practice, so the register is set to make the next word
// one, and skip must leave the source where Float64 and NormFloat64 do.
func TestSkipFloat64Redraw(t *testing.T) {
	for _, x := range []uint64{1<<63 - 1, 1<<64 - 1, 1<<63 - 512, 1<<63 - 513} {
		var got, want source
		got.Seed(11)
		// The next output is the sum of the words before feed and tap.
		feed, tap := (got.feed+rngLen-1)%rngLen, (got.tap+rngLen-1)%rngLen
		got.vec[feed] = x - got.vec[tap]
		want = got
		got.skip(1, true, rand.New(&got))
		ref := rand.New(&want)
		ref.Float64()
		ref.NormFloat64()
		if got != want {
			t.Errorf("next word %#x: skip leaves the source elsewhere than Float64 + NormFloat64", x)
		}
	}
}

func BenchmarkSourceSkip(b *testing.B) {
	var s source
	s.Seed(1)
	rng := rand.New(&s)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.skip(396, false, rng) // a run's four learning rates × 99 epochs
	}
}
