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
// one serial chain of 1,841 divisions; here the register is filled four
// words at a time by twelve independent lanes — the three Lehmer words of
// each of the four — each stepping by 48271¹², reduced by folding
// (2³¹ ≡ 1), so their latencies overlap (see fillLanes).
type source struct {
	tap, feed int
	vec       [rngLen]uint64
}

const (
	rngLen  = 607
	rngTap  = 273
	lehmerM = 1<<31 - 1
	lehmerA = 48271

	// rngGroups is how many whole groups of four words fillLanes writes;
	// the register's last rngLen − 4·rngGroups words come from the lanes
	// it leaves behind.
	rngGroups = rngLen / 4
)

var (
	// lanePow[p][k] = 48271^(21+3k+p): lane (p, k) starts on part p (0 the
	// <<40 word, 1 the <<20 word, 2 the plain one) of register word k.
	lanePow   = lanePowers()
	lehmerA12 = powmod(lehmerA, 12)

	// rngCooked is math/rand's table of the same name, recovered once from
	// the stdlib's own output (see recoverCooked) rather than copied.
	rngCooked = recoverCooked()
)

func lanePowers() (pow [3][4]uint64) {
	for p := range pow {
		for k := range pow[p] {
			pow[p][k] = powmod(lehmerA, 21+3*k+p)
		}
	}
	return pow
}

// mulmod returns x·c mod (2³¹−1) for x, c in [1, 2³¹−2]. The modulus is
// prime, so x·c is never a multiple of it, and two folds land in
// [1, 2³¹−2] with no final correction.
func mulmod(x, c uint64) uint64 {
	p := x * c            // < 2⁶²
	p = p&lehmerM + p>>31 // < 2³²
	return p&lehmerM + p>>31
}

func powmod(a uint64, n int) uint64 {
	p := uint64(1)
	for ; n > 0; n-- {
		p = mulmod(p, a)
	}
	return p
}

// fill writes the register for seed, XOR-ed with cooked.
func (s *source) fill(seed int64, cooked *[rngLen]uint64) {
	s.tap, s.feed = 0, rngLen-rngTap
	lanes := seedLanes(seed)
	fillLanes(&s.vec, &lanes, cooked)
	for k, i := 0, 4*rngGroups; i < rngLen; k, i = k+1, i+1 {
		s.vec[i] = lanes[0][k]<<40 ^ lanes[1][k]<<20 ^ lanes[2][k] ^ cooked[i]
	}
}

// seedLanes normalises seed as rngSource.Seed does and returns the twelve
// lanes on register words 0 … 3.
func seedLanes(seed int64) (lanes [3][4]uint64) {
	seed %= lehmerM
	if seed < 0 {
		seed += lehmerM
	}
	if seed == 0 {
		seed = 89482311
	}
	for p := range lanes {
		for k := range lanes[p] {
			lanes[p][k] = mulmod(uint64(seed), lanePow[p][k])
		}
	}
	return lanes
}

// fillLanesGo writes words 0 … 4·rngGroups−1 of vec from the twelve lanes,
// four words per step, and leaves the lanes on the four words after them.
// It is the portable path, and the reference the AVX2 kernel is checked
// against.
func fillLanesGo(vec *[rngLen]uint64, lanes *[3][4]uint64, cooked *[rngLen]uint64) {
	for i := 0; i < 4*rngGroups; i += 4 {
		for k := range 4 {
			h, m, l := lanes[0][k], lanes[1][k], lanes[2][k]
			vec[i+k] = h<<40 ^ m<<20 ^ l ^ cooked[i+k]
			lanes[0][k], lanes[1][k], lanes[2][k] = mulmod(h, lehmerA12), mulmod(m, lehmerA12), mulmod(l, lehmerA12)
		}
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

// unread takes back the last Uint64: the word it stored goes back to what
// it was, and tap and feed step forward again.
func (s *source) unread() {
	s.vec[s.feed] -= s.vec[s.tap]
	if s.tap++; s.tap == rngLen {
		s.tap = 0
	}
	if s.feed++; s.feed == rngLen {
		s.feed = 0
	}
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
