// Package rawf64 is the one encoding of float arrays as raw bits, shared by
// the WAL's example frames (internal/storage) and the tensor request bodies
// (internal/server, internal/client):
//
//	vector  uvarint n · n×f64         (IEEE-754 bits, little-endian)
//	matrix  uvarint rows · rows×vector
//
// Floats cost 8 bytes each and round-trip bit for bit (-0, subnormals and
// NaN payloads included); no decimal text is printed or parsed. Decoding
// accepts exactly the bytes encoding produces: a count must be a minimal
// uvarint and must fit in what is left of the input, so a decoded value
// never takes more than 24 bytes of memory per input byte (a row header
// per row, the smallest row being one byte) whatever the counts claim.
package rawf64

import (
	"encoding/binary"
	"errors"
	"math"
)

var (
	errFloatCount = errors.New("bad float count")
	errRowCount   = errors.New("bad row count")
)

// VectorSize is the encoded size of v.
func VectorSize(v []float64) int {
	return uvarintLen(len(v)) + 8*len(v)
}

// MatrixSize is the encoded size of m.
func MatrixSize(m [][]float64) int {
	n := uvarintLen(len(m))
	for _, v := range m {
		n += VectorSize(v)
	}
	return n
}

// AppendVector appends v's encoding to dst.
func AppendVector(dst []byte, v []float64) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(v)))
	for _, x := range v {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(x))
	}
	return dst
}

// AppendMatrix appends m's encoding to dst.
func AppendMatrix(dst []byte, m [][]float64) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(m)))
	for _, v := range m {
		dst = AppendVector(dst, v)
	}
	return dst
}

// ReadVector decodes a vector off the front of p and returns the bytes
// after it. A zero count reads as nil.
func ReadVector(p []byte) (v []float64, rest []byte, err error) {
	n, k := uvarint(p)
	if k <= 0 || n > uint64(len(p)-k)/8 {
		return nil, nil, errFloatCount
	}
	p = p[k:]
	if n == 0 {
		return nil, p, nil
	}
	v = make([]float64, n)
	for i := range v {
		v[i] = math.Float64frombits(binary.LittleEndian.Uint64(p[8*i:]))
	}
	return v, p[8*n:], nil
}

// ReadMatrix decodes a matrix off the front of p and returns the bytes
// after it. Rows with a zero count read as nil.
func ReadMatrix(p []byte) (m [][]float64, rest []byte, err error) {
	rows, k := uvarint(p)
	if k <= 0 || rows > uint64(len(p)-k) { // every row takes at least its count byte
		return nil, nil, errRowCount
	}
	p = p[k:]
	m = make([][]float64, rows)
	for i := range m {
		if m[i], p, err = ReadVector(p); err != nil {
			return nil, nil, err
		}
	}
	return m, p, nil
}

// NonFinite returns the index of v's first NaN or ±Inf, or -1. The
// encoding carries such values; JSON and the callers that refuse them
// do not.
func NonFinite(v []float64) int {
	for i, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return i
		}
	}
	return -1
}

// uvarint is binary.Uvarint refusing a non-minimal encoding (a final byte
// of zero after a continuation), so every value has one encoding.
func uvarint(p []byte) (uint64, int) {
	n, k := binary.Uvarint(p)
	if k > 1 && p[k-1] == 0 {
		return 0, 0
	}
	return n, k
}

func uvarintLen(n int) int {
	k := 1
	for ; n >= 0x80; n >>= 7 {
		k++
	}
	return k
}
