package trainsim

import "math/rand"

// source yields exactly the stream of rand.NewSource(seed), but seeds in
// place and cheaply, so a pooled one can be reseeded for every run.
//
// math/rand's source is an additive lagged Fibonacci generator over a
// 607-word register: every output adds the word at tap to the word at feed
// (273 places apart), stores the sum at feed and returns it. Seeding fills
// the register with
//
//	vec[i] = x[21+3i]<<40 ^ x[22+3i]<<20 ^ x[23+3i] ^ rngCooked[i]
//
// where x[n] is the Lehmer generator x ↦ 48271·x mod (2³¹−1) stepped n
// times from the seed, i.e. x[n] = 48271ⁿ·seed. The stdlib walks that as
// one serial chain of 1,841 divisions; here the three words of vec[i] are
// three independent lanes, each stepping by 48271³, reduced by folding
// (2³¹ ≡ 1), so their latencies overlap.
type source struct {
	tap, feed int
	vec       [rngLen]uint64
}

const (
	rngLen  = 607
	rngTap  = 273
	lehmerM = 1<<31 - 1
	lehmerA = 48271
)

var (
	lehmerA3  = powmod(lehmerA, 3)
	lehmerA21 = powmod(lehmerA, 21)
	lehmerA22 = powmod(lehmerA, 22)
	lehmerA23 = powmod(lehmerA, 23)

	// rngCooked is math/rand's table of the same name, recovered once from
	// the stdlib's own output (see recoverCooked) rather than copied.
	rngCooked = recoverCooked()
)

// mulmod returns x·c mod (2³¹−1) for x, c < 2³¹.
func mulmod(x, c uint64) uint64 {
	p := x * c            // < 2⁶²
	p = p&lehmerM + p>>31 // < 2³²
	p = p&lehmerM + p>>31 // ≤ 2³¹−1
	if p == lehmerM {
		p = 0
	}
	return p
}

func powmod(a uint64, n int) uint64 {
	p := uint64(1)
	for ; n > 0; n-- {
		p = mulmod(p, a)
	}
	return p
}

// fill writes the register for seed, normalised as rngSource.Seed does,
// XOR-ed with cooked.
func (s *source) fill(seed int64, cooked *[rngLen]uint64) {
	s.tap, s.feed = 0, rngLen-rngTap
	seed %= lehmerM
	if seed < 0 {
		seed += lehmerM
	}
	if seed == 0 {
		seed = 89482311
	}
	x := uint64(seed)
	hi, mid, lo := mulmod(x, lehmerA21), mulmod(x, lehmerA22), mulmod(x, lehmerA23)
	for i := range s.vec {
		s.vec[i] = (hi<<40 ^ mid<<20 ^ lo) ^ cooked[i]
		hi, mid, lo = mulmod(hi, lehmerA3), mulmod(mid, lehmerA3), mulmod(lo, lehmerA3)
	}
}

// Seed implements rand.Source.
func (s *source) Seed(seed int64) { s.fill(seed, &rngCooked) }

// Uint64 implements rand.Source64.
func (s *source) Uint64() uint64 {
	if s.tap--; s.tap < 0 {
		s.tap += rngLen
	}
	if s.feed--; s.feed < 0 {
		s.feed += rngLen
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return x
}

// Int63 implements rand.Source.
func (s *source) Int63() int64 { return int64(s.Uint64() &^ (1 << 63)) }

// recoverCooked inverts the first 607 outputs o[1..607] of
// rand.NewSource(1) into the register v it was seeded with, and strips the
// Lehmer words off v. Output k moves tap to 607−k and feed to 334−k
// (mod 607), so:
//
//   - k ≤ 273: neither word was written yet: o[k] = v[334−k] + v[607−k].
//   - k > 273: the tap word is the one output k−273 wrote, and the feed
//     word (334−k mod 607) was never written: o[k] = v[(941−k) mod 607] +
//     o[k−273]. That gives v[0..60] and v[334..606] directly, and the first
//     case then gives v[61..333].
func recoverCooked() (cooked [rngLen]uint64) {
	const feed0 = rngLen - rngTap // 334
	ref := rand.NewSource(1).(rand.Source64)
	var o [rngLen + 1]uint64
	for k := 1; k <= rngLen; k++ {
		o[k] = ref.Uint64()
	}
	var v [rngLen]uint64
	for k := rngTap + 1; k <= rngLen; k++ {
		v[(feed0-k+rngLen)%rngLen] = o[k] - o[k-rngTap]
	}
	for k := 1; k <= rngTap; k++ {
		v[feed0-k] = o[k] - v[rngLen-k]
	}
	var lehmer source
	lehmer.fill(1, &[rngLen]uint64{})
	for i := range cooked {
		cooked[i] = v[i] ^ lehmer.vec[i]
	}
	return cooked
}
