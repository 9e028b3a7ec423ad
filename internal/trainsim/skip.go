package trainsim

import (
	"math/rand"
	"sort"
)

// A run with KeepCurves off evaluates one epoch per learning rate, the
// last, but must consume the draws of the 99 before it to stay on
// rand.NewSource's stream. skip consumes them without computing them:
// math/rand's NormFloat64 is a ziggurat that reads one 63-bit output,
// takes its top 32 bits as an int32 j, picks layer j&0x7F and returns at
// once if |j| lies below that layer's bound: for 97.2 % of draws (layer
// 1's bound is 0). skip runs only that test on the register; on a draw the
// test rejects, it takes the word back and lets rng.NormFloat64 consume
// the stream itself, so rejections have no second implementation.

// strip is one ziggurat layer's one-draw acceptance test, in the units of
// the draw j: a j whose low seven bits name the layer is accepted in one
// draw exactly when lo ≤ j < lo+width, i.e. uint32(j−lo) < width.
type strip struct {
	lo    int32
	width uint32
}

// strips holds the 128 layers' tests, recovered once from math/rand's own
// NormFloat64 (see recoverStrips) rather than copied from its tables.
var strips = recoverStrips()

// oneDraw is a rand.Source that yields v once, then zeros, and counts its
// reads: a NormFloat64 that reads it once accepted v's draw in one step.
type oneDraw struct {
	v     int64
	reads int
}

func (o *oneDraw) Int63() int64 {
	if o.reads++; o.reads > 1 {
		return 0 // ends any slow path: Float64 0, then j = 0 inside layer 0
	}
	return o.v
}

func (o *oneDraw) Seed(int64) {}

// probeAccepts reports whether rand's NormFloat64 returns on its first
// read when that read's draw is j.
func probeAccepts(rng *rand.Rand, probe *oneDraw, j int32) bool {
	*probe = oneDraw{v: int64(uint32(j)) << 31} // Uint32 is Int63 >> 31
	rng.NormFloat64()
	return probe.reads == 1
}

// recoverStrips finds each layer's accepted draws by bisection. A layer's
// draws are j = m<<7 | i for m in [−2²⁴, 2²⁴), and the ziggurat accepts
// |j| below a bound, so the accepted m form one interval around 0: the
// first rejected m ≥ 0 ends it and the first accepted m < 0 starts it.
func recoverStrips() (st [128]strip) {
	var probe oneDraw
	rng := rand.New(&probe)
	for i := range st {
		accepts := func(m int) bool { return probeAccepts(rng, &probe, int32(m<<7|i)) }
		hi := sort.Search(1<<24, func(m int) bool { return !accepts(m) })
		lo := sort.Search(1<<24, func(m int) bool { return accepts(m - 1<<24) }) - 1<<24
		st[i] = strip{lo: int32(lo<<7 | i), width: uint32((hi - lo) << 7)}
	}
	return st
}

// acceptsInOne reports whether NormFloat64 returns at once on the output x.
func acceptsInOne(x uint64) bool {
	j := int32(x >> 31) // Uint32 is Int63 >> 31; Int63 is x without its top bit
	st := strips[j&0x7F]
	return uint32(j-st.lo) < st.width
}

// skip advances the stream past n epochs' draws — each a Float64 when
// jumps is set, then a NormFloat64 — exactly as n such calls on rng would,
// without computing their values. rng must read from s. A Float64 draw
// that would round to 1, which Float64 redraws, also goes to rng itself.
func (s *source) skip(n int, jumps bool, rng *rand.Rand) {
	if jumps {
		for ; n > 0; n-- {
			if x := s.Uint64(); float64(int64(x&^(1<<63))) == 1<<63 {
				s.unread()
				rng.Float64()
			}
			if !acceptsInOne(s.Uint64()) {
				s.unread()
				rng.NormFloat64()
			}
		}
		return
	}
	// Uint64 in runs: until tap or feed wraps, the next words are
	// vec[feed−1], vec[feed−2], … and vec[tap−1], vec[tap−2], ….
	for n > 0 {
		tap, feed := s.tap, s.feed
		if tap == 0 {
			tap = rngLen
		}
		if feed == 0 {
			feed = rngLen
		}
		run := min(n, tap, feed)
		f, t := s.vec[feed-run:feed], s.vec[tap-run:tap]
		t = t[:len(f)]
		k := len(f) - 1
		for ; k >= 0; k-- {
			x := f[k] + t[k]
			f[k] = x
			if !acceptsInOne(x) {
				break
			}
		}
		if k < 0 {
			s.tap, s.feed, n = tap-run, feed-run, n-run
			continue
		}
		s.tap, s.feed, n = tap-run+k, feed-run+k, n-(run-k)
		s.unread()
		rng.NormFloat64()
	}
}
