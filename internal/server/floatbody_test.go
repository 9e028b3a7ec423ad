package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/rawf64"
)

// floatBodyShapes are the request types read through readFloatBody.
var floatBodyShapes = []struct {
	name string
	zero func() FloatBody
}{
	{"feed", func() FloatBody { return new(FeedRequest) }},
	{"infer", func() FloatBody { return new(InferRequest) }},
	{"infer_batch", func() FloatBody { return new(InferBatchRequest) }},
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

// sameFloatBits is sameFloatFields up to nil-ness: a tensor body does not
// tell an empty vector from a nil one.
func sameFloatBits(a, b []floatField) bool {
	return bytes.Equal(encodeFields(a), encodeFields(b))
}

// encodeFields encodes decoded fields back into a tensor body, non-finite
// values included (TensorBody refuses those).
func encodeFields(fields []floatField) []byte {
	var b []byte
	for _, f := range fields {
		if f.vec != nil {
			b = rawf64.AppendVector(b, *f.vec)
		} else {
			b = rawf64.AppendMatrix(b, *f.mat)
		}
	}
	return b
}

// decodedBytes is the float memory a decode holds: 8 bytes per float and
// a 24-byte slice header per matrix row.
func decodedBytes(fields []floatField) int {
	n := 0
	for _, f := range fields {
		if f.vec != nil {
			n += 8 * cap(*f.vec)
			continue
		}
		n += 24 * cap(*f.mat)
		for _, v := range *f.mat {
			n += 8 * cap(v)
		}
	}
	return n
}

var updateCorpus = flag.Bool("update-corpus", false, "rewrite testdata/fuzz/FuzzTensorBody from tensorCorpus")

// tensorCorpus is FuzzTensorBody's seed corpus: bodies the client encodes,
// and the malformed shapes the decoder must refuse.
func tensorCorpus(t testing.TB) map[string][]byte {
	encode := func(req FloatBody) []byte {
		b, err := TensorBody(req)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	feed := encode(&FeedRequest{
		Inputs:  [][]float64{{0.1, math.Copysign(0, -1), 1e-7, 123456789.125}, {}},
		Outputs: [][]float64{{1, 0}, {0, 1}},
	})
	infer := encode(&InferRequest{Input: []float64{math.MaxFloat64, math.SmallestNonzeroFloat64, -2.5, math.Copysign(0, -1)}})
	nan := binary.LittleEndian.AppendUint64([]byte{1}, math.Float64bits(math.NaN()))
	return map[string][]byte{
		"feed_encoded":       feed,
		"infer_encoded":      infer,
		"batch_encoded":      encode(&InferBatchRequest{Inputs: [][]float64{{1, 2, 3}, {4, 5, 6}}}),
		"empty_matrices":     {0, 0},
		"empty_body":         {},
		"count_past_end":     append([]byte{3}, infer[1:17]...),
		"truncated_float":    infer[:len(infer)-3],
		"trailing_bytes":     append(bytes.Clone(infer), 'x'),
		"non_minimal_count":  {0x80, 0x00},
		"row_count_past_end": {0xff, 0xff, 0xff, 0xff, 0x0f, 0},
		"float_count_2_62":   binary.AppendUvarint(nil, 1<<62),
		"varint_overflow":    bytes.Repeat([]byte{0xff}, 11),
		"nan_bits":           nan,
		"json_body":          []byte(`{"input":[1,2]}`),
	}
}

// The committed seed corpus is what tensorCorpus generates; rewrite it with
// go test ./internal/server -run TestTensorBodyCorpus -update-corpus.
func TestTensorBodyCorpus(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzTensorBody")
	for name, body := range tensorCorpus(t) {
		path := filepath.Join(dir, name)
		want := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", body)
		if *updateCorpus {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(want), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		got, err := os.ReadFile(path)
		if err != nil || string(got) != want {
			t.Errorf("%s is stale (%v); rerun with -update-corpus", path, err)
		}
	}
}

// FuzzTensorBody: the decoder never panics; it accepts exactly the bodies
// the encoder produces (so nothing short, over-long or trailing) within 24
// bytes of decoded memory per body byte; and the encoder round-trips every
// finite value bit for bit.
func FuzzTensorBody(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, shape := range floatBodyShapes {
			fields := shape.zero().floatFields()
			if decodeTensor(body, fields) == nil {
				if got := encodeFields(fields); !bytes.Equal(got, body) {
					t.Fatalf("%s: accepted %x, which encodes back as %x", shape.name, body, got)
				}
				if n := decodedBytes(fields); n > 24*len(body) {
					t.Fatalf("%s: %d body bytes decoded into %d bytes", shape.name, len(body), n)
				}
				if len(body) > 0 && decodeTensor(body[:len(body)-1], shape.zero().floatFields()) == nil {
					t.Fatalf("%s: accepted %x and its prefix", shape.name, body)
				}
				if decodeTensor(append(bytes.Clone(body), 0), shape.zero().floatFields()) == nil {
					t.Fatalf("%s: accepted %x with a trailing byte", shape.name, body)
				}
			}

			// The body's bytes read as floats, through the encoder.
			v := make([]float64, len(body)/8)
			for i := range v {
				v[i] = math.Float64frombits(binary.LittleEndian.Uint64(body[8*i:]))
			}
			req := shape.zero()
			for _, fld := range req.floatFields() {
				if fld.vec != nil {
					*fld.vec = v
				} else {
					*fld.mat = [][]float64{v, v[len(v)/2:], nil}
				}
			}
			enc, err := TensorBody(req)
			if rawf64.NonFinite(v) >= 0 {
				if err == nil {
					t.Fatalf("%s: encoded a non-finite value", shape.name)
				}
				continue
			}
			if err != nil || len(enc) != cap(enc) {
				t.Fatalf("%s: encode: %v (len %d, cap %d)", shape.name, err, len(enc), cap(enc))
			}
			back := shape.zero().floatFields()
			if err := decodeTensor(enc, back); err != nil || !sameFloatBits(back, req.floatFields()) {
				t.Fatalf("%s: %v does not round-trip: %v", shape.name, v, err)
			}
		}
	})
}

// postFloatBody runs readFloatBody on body sent with contentType.
func postFloatBody(dst FloatBody, contentType string, body []byte) (*httptest.ResponseRecorder, bool) {
	rw := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/jobs/x/feed", bytes.NewReader(body))
	req.Header.Set("Content-Type", contentType)
	return rw, readFloatBody(rw, req, dst)
}

// What the Go client sends is a tensor body and decodes to exactly what was
// encoded; a JSON body is still accepted, by encoding/json, as before.
func TestFloatBodyDecoders(t *testing.T) {
	want := FeedRequest{
		Inputs:  [][]float64{{0.1, math.Copysign(0, -1), 1e-300, 7}, {3, 4, 5, 6}},
		Outputs: [][]float64{{1, 0}, {0, 1}},
	}
	tensor, err := TensorBody(&want)
	if err != nil {
		t.Fatal(err)
	}
	canonical, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name, decoder, contentType string
		body                       []byte
	}{
		{"client body", "tensor", TensorContentType, tensor},
		{"capitalized key", "json", "application/json", bytes.Replace(canonical, []byte(`"inputs"`), []byte(`"Inputs"`), 1)},
	} {
		t.Run(c.name, func(t *testing.T) {
			before := floatBodyDecodes.With(c.decoder).Value()
			var got FeedRequest
			if rw, ok := postFloatBody(&got, c.contentType, c.body); !ok {
				t.Fatalf("rejected: %d %s", rw.Code, rw.Body)
			}
			if n := floatBodyDecodes.With(c.decoder).Value() - before; n != 1 {
				t.Errorf("%s decodes moved by %d, want 1", c.decoder, n)
			}
			if !sameFloatFields(got.floatFields(), want.floatFields()) {
				t.Errorf("decoded %+v, want %+v", got, want)
			}
		})
	}
}

// FuzzFloatBody: a JSON float body decodes exactly as encoding/json's
// strict decoder decodes it (accepted or not, the same values bit for bit,
// the same error text), and whatever it accepts decodes to the same bits
// when the Go client sends it as a tensor body. The committed corpus holds
// the edge shapes of JSON numbers, keys and framing.
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
			got, ref := shape.zero(), shape.zero()
			rw, ok := postFloatBody(got, "application/json", body)
			dec := json.NewDecoder(bytes.NewReader(body))
			dec.DisallowUnknownFields()
			err := dec.Decode(ref)
			if ok != (err == nil) {
				t.Fatalf("%s: %q: readFloatBody ok=%v, encoding/json err=%v", shape.name, body, ok, err)
			}
			if !ok {
				var env ErrorBody
				if json.Unmarshal(rw.Body.Bytes(), &env) != nil || env.Error != "invalid JSON: "+err.Error() {
					t.Fatalf("%s: %q: HTTP %d %s, want 400 invalid JSON: %v", shape.name, body, rw.Code, rw.Body, err)
				}
				continue
			}
			if !sameFloatFields(got.floatFields(), ref.floatFields()) {
				t.Fatalf("%s: %q decodes to %+v, encoding/json %+v", shape.name, body, got, ref)
			}
			tensor, err := TensorBody(ref)
			if err != nil {
				t.Fatalf("%s: %q: JSON carried a value the tensor encoder refuses: %v", shape.name, body, err)
			}
			back := shape.zero()
			if rw, ok := postFloatBody(back, TensorContentType, tensor); !ok || !sameFloatBits(back.floatFields(), ref.floatFields()) {
				t.Fatalf("%s: %q as a tensor body: HTTP %d %s, decoded %+v", shape.name, body, rw.Code, rw.Body, back)
			}
		}
	})
}

// The body buffer grows with the bytes that arrive: a request that
// declares 32 MiB and sends 1 KiB does not allocate 32 MiB.
func TestFloatBodySizedByArrival(t *testing.T) {
	for _, contentType := range []string{TensorContentType, "application/json"} {
		rw := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/jobs/x/feed", bytes.NewReader(make([]byte, 1024)))
		req.Header.Set("Content-Type", contentType)
		req.ContentLength = MaxRequestBytes
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		readFloatBody(rw, req, new(FeedRequest))
		runtime.ReadMemStats(&after)
		if n := after.TotalAlloc - before.TotalAlloc; n >= 1<<20 {
			t.Errorf("%s: a 1 KiB body declared as %d bytes allocated %d bytes", contentType, req.ContentLength, n)
		}
	}
}
