package trainsim

import "repro/internal/cpufeat"

// fillLanes is fillLanesGo, run by fillLanesAVX2 when the CPU has AVX2:
// each of the three parts is one YMM register holding its four lanes, and
// one VPMULUDQ and two folds step all four, as mulmod steps one.
func fillLanes(vec *[rngLen]uint64, lanes *[3][4]uint64, cooked *[rngLen]uint64) {
	if !cpufeat.AVX2 {
		fillLanesGo(vec, lanes, cooked)
		return
	}
	fillLanesAVX2(vec, lanes, cooked, lehmerA12)
}

// fillLanesAVX2 computes fillLanesGo(vec, lanes, cooked) with AVX2, step
// being 48271¹² mod (2³¹−1); see fill_amd64.s.
//
//go:noescape
func fillLanesAVX2(vec *[rngLen]uint64, lanes *[3][4]uint64, cooked *[rngLen]uint64, step uint64)
