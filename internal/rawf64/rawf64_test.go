package rawf64

import (
	"bytes"
	"math"
	"testing"
)

// Every value round-trips bit for bit, sizes are exact, and decoding
// refuses a short, non-minimal or oversized count.
func TestRoundTripAndRefusals(t *testing.T) {
	m := [][]float64{
		{math.Copysign(0, -1), math.SmallestNonzeroFloat64, math.MaxFloat64, math.Float64frombits(0x7ff8_0000_dead_beef)},
		nil,
		make([]float64, 200), // a two-byte count
	}
	b := AppendMatrix(nil, m)
	if len(b) != MatrixSize(m) {
		t.Fatalf("encoded %d bytes, MatrixSize says %d", len(b), MatrixSize(m))
	}
	got, rest, err := ReadMatrix(append(bytes.Clone(b), 'x'))
	if err != nil || string(rest) != "x" || len(got) != len(m) {
		t.Fatalf("ReadMatrix: %d rows, rest %q, %v", len(got), rest, err)
	}
	for i := range m {
		if !bytes.Equal(AppendVector(nil, got[i]), AppendVector(nil, m[i])) {
			t.Errorf("row %d: %v, want %v", i, got[i], m[i])
		}
	}
	for name, p := range map[string][]byte{
		"empty":             {},
		"short row":         b[:len(b)-1],
		"non-minimal count": {0x81, 0x00, 0, 0, 0, 0, 0, 0, 0, 0},
		"rows past the end": {0xff, 0x7f},
	} {
		if _, _, err := ReadMatrix(p); err == nil {
			t.Errorf("%s: ReadMatrix accepted %x", name, p)
		}
	}
	if i := NonFinite([]float64{1, math.Inf(-1), math.NaN()}); i != 1 {
		t.Errorf("NonFinite = %d, want 1", i)
	}
}
