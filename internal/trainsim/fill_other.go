//go:build !amd64

package trainsim

// fillLanes is the portable loop on every architecture without the AVX2
// kernel; see fill_amd64.go.
func fillLanes(vec *[rngLen]uint64, lanes *[3][4]uint64, cooked *[rngLen]uint64) {
	fillLanesGo(vec, lanes, cooked)
}
