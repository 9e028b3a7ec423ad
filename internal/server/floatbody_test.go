package server

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
)

// floatBodyShapes are the request types read through readFloatBody, each
// with the fields its handler passes.
var floatBodyShapes = []struct {
	name   string
	fields func(dst any) []floatField
	zero   func() any
}{
	{"feed", func(dst any) []floatField {
		r := dst.(*FeedRequest)
		return []floatField{{key: "inputs", mat: &r.Inputs}, {key: "outputs", mat: &r.Outputs}}
	}, func() any { return new(FeedRequest) }},
	{"infer", func(dst any) []floatField {
		r := dst.(*InferRequest)
		return []floatField{{key: "input", vec: &r.Input}}
	}, func() any { return new(InferRequest) }},
	{"infer_batch", func(dst any) []floatField {
		r := dst.(*InferBatchRequest)
		return []floatField{{key: "inputs", mat: &r.Inputs}}
	}, func() any { return new(InferBatchRequest) }},
}

// sameFloatFields compares two decodes field by field: nil-ness, lengths
// and every value's bits (so -0 and 0 differ).
func sameFloatFields(a, b []floatField) bool {
	sameVec := func(x, y []float64) bool {
		if (x == nil) != (y == nil) || len(x) != len(y) {
			return false
		}
		for i := range x {
			if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
				return false
			}
		}
		return true
	}
	for k := range a {
		if a[k].vec != nil {
			if !sameVec(*a[k].vec, *b[k].vec) {
				return false
			}
			continue
		}
		x, y := *a[k].mat, *b[k].mat
		if (x == nil) != (y == nil) || len(x) != len(y) {
			return false
		}
		for i := range x {
			if !sameVec(x[i], y[i]) {
				return false
			}
		}
	}
	return true
}

// FuzzFloatBody: the fast scanner's accepted set is a subset of what
// ReadJSON's strict decoder accepts, with an identical value (bit for bit,
// -0 included); whatever the strict decoder rejects, the scanner rejects.
func FuzzFloatBody(f *testing.F) {
	for _, v := range []any{
		FeedRequest{Inputs: [][]float64{{0.1, math.Copysign(0, -1), 1e-7, 123456789.125}, {}}, Outputs: [][]float64{{1, 0}, {0, 1}}},
		InferRequest{Input: []float64{math.MaxFloat64, math.SmallestNonzeroFloat64, -2.5}},
		InferBatchRequest{Inputs: [][]float64{{1, 2, 3}}},
	} {
		b, err := json.Marshal(v)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, shape := range floatBodyShapes {
			fast, ref := shape.zero(), shape.zero()
			ok := scanFloatBody(body, shape.fields(fast))
			dec := json.NewDecoder(bytes.NewReader(body))
			dec.DisallowUnknownFields()
			err := dec.Decode(ref)
			if ok && err != nil {
				t.Fatalf("%s: the scanner accepted %q, which encoding/json rejects: %v", shape.name, body, err)
			}
			if ok && !sameFloatFields(shape.fields(fast), shape.fields(ref)) {
				t.Fatalf("%s: %q decodes to %+v by the scanner, %+v by encoding/json", shape.name, body, fast, ref)
			}
		}
	})
}

// What the Go client sends takes the fast path and decodes to exactly what
// was marshalled; a body outside the canonical shape is still accepted, by
// the fallback, as before.
func TestFloatBodyDecoders(t *testing.T) {
	want := FeedRequest{
		Inputs:  [][]float64{{0.1, math.Copysign(0, -1), 1e-300, 7}, {3, 4, 5, 6}},
		Outputs: [][]float64{{1, 0}, {0, 1}},
	}
	canonical, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name, decoder string
		body          []byte
	}{
		{"client body", "fast", canonical},
		{"capitalized key", "fallback", bytes.Replace(canonical, []byte(`"inputs"`), []byte(`"Inputs"`), 1)},
	} {
		t.Run(c.name, func(t *testing.T) {
			before := floatBodyDecodes.With(c.decoder).Value()
			var got FeedRequest
			rw := httptest.NewRecorder()
			req := httptest.NewRequest(http.MethodPost, "/jobs/x/feed", bytes.NewReader(c.body))
			if !readFloatBody(rw, req, &got, floatField{key: "inputs", mat: &got.Inputs}, floatField{key: "outputs", mat: &got.Outputs}) {
				t.Fatalf("rejected: %d %s", rw.Code, rw.Body)
			}
			if n := floatBodyDecodes.With(c.decoder).Value() - before; n != 1 {
				t.Errorf("%s decodes moved by %d, want 1", c.decoder, n)
			}
			wantFields := []floatField{{mat: &want.Inputs}, {mat: &want.Outputs}}
			if !sameFloatFields([]floatField{{mat: &got.Inputs}, {mat: &got.Outputs}}, wantFields) {
				t.Errorf("decoded %+v, want %+v", got, want)
			}
		})
	}
}
