package server

import (
	"bytes"
	"fmt"
	"net/http"

	"repro/internal/rawf64"
	"repro/internal/telemetry"
)

// Float-array request bodies — feed, infer, infer/batch, infer/stream — are
// almost all numbers, so besides JSON they travel as a tensor body: with
// Content-Type exactly TensorContentType, the body is the request's
// float-array fields in declaration order, each a rawf64 vector or matrix
// (FeedRequest: inputs, outputs; InferRequest: input; InferBatchRequest:
// inputs), and nothing else. The floats are copied out as raw bits, so no
// decimal text is printed by the client or parsed here; a 100 × 768-float
// feed is 614 KB instead of 1.45 MB of JSON. The decoder only frames: what
// the values may be (width, finiteness) is checked where the JSON path
// checks it too. Any other Content-Type is read by ReadJSON, as before.

// TensorContentType is the media type of a tensor body.
const TensorContentType = "application/x-easeml-f64"

var floatBodyDecodes = telemetry.Default().CounterVec("easeml_float_body_decodes_total",
	"Float-array request bodies (feed, infer, infer/batch, infer/stream) by decoder: tensor (raw f64) or json (encoding/json).",
	"decoder")

// FloatBody is a request with float-array fields: FeedRequest,
// InferRequest and InferBatchRequest.
type FloatBody interface {
	floatFields() []floatField
}

// floatField is one float-array field of a request: a vector (vec) or a
// matrix (mat), named key in JSON.
type floatField struct {
	key string
	vec *[]float64
	mat *[][]float64
}

func (r *FeedRequest) floatFields() []floatField {
	return []floatField{{key: "inputs", mat: &r.Inputs}, {key: "outputs", mat: &r.Outputs}}
}

func (r *InferRequest) floatFields() []floatField {
	return []floatField{{key: "input", vec: &r.Input}}
}

func (r *InferBatchRequest) floatFields() []floatField {
	return []floatField{{key: "inputs", mat: &r.Inputs}}
}

// TensorBody encodes req as a tensor body, in one buffer of exactly its
// size. Like json.Marshal it refuses NaN and ±Inf, so a client sending
// only what it encodes never puts them on the wire.
func TensorBody(req FloatBody) ([]byte, error) {
	fields := req.floatFields()
	size := 0
	for _, f := range fields {
		if f.vec != nil {
			if i := rawf64.NonFinite(*f.vec); i >= 0 {
				return nil, fmt.Errorf("%s element %d is %v, values must be finite", f.key, i, (*f.vec)[i])
			}
			size += rawf64.VectorSize(*f.vec)
			continue
		}
		for row, v := range *f.mat {
			if i := rawf64.NonFinite(v); i >= 0 {
				return nil, fmt.Errorf("%s[%d] element %d is %v, values must be finite", f.key, row, i, v[i])
			}
		}
		size += rawf64.MatrixSize(*f.mat)
	}
	b := make([]byte, 0, size)
	for _, f := range fields {
		if f.vec != nil {
			b = rawf64.AppendVector(b, *f.vec)
		} else {
			b = rawf64.AppendMatrix(b, *f.mat)
		}
	}
	return b, nil
}

// readFloatBody decodes a float-array request body into dst: a tensor body
// by its Content-Type, anything else through ReadJSON. Like ReadJSON it
// answers 400 or 413 itself and reports false on failure.
func readFloatBody(w http.ResponseWriter, r *http.Request, dst FloatBody) bool {
	if r.Header.Get("Content-Type") != TensorContentType {
		floatBodyDecodes.With("json").Inc()
		return ReadJSON(w, r, dst)
	}
	floatBodyDecodes.With("tensor").Inc()
	// The buffer grows with the bytes that arrive, never to the declared
	// Content-Length: a client announcing 32 MiB and trickling bytes must
	// not pin 32 MiB.
	var buf bytes.Buffer
	_, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, MaxRequestBytes))
	if err == nil {
		err = decodeTensor(buf.Bytes(), dst.floatFields())
	}
	if err != nil {
		writeBodyError(w, "invalid tensor body", err)
		return false
	}
	return true
}

// decodeTensor decodes a whole tensor body into fields.
func decodeTensor(b []byte, fields []floatField) error {
	var err error
	for _, f := range fields {
		if f.vec != nil {
			*f.vec, b, err = rawf64.ReadVector(b)
		} else {
			*f.mat, b, err = rawf64.ReadMatrix(b)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", f.key, err)
		}
	}
	if len(b) != 0 {
		return fmt.Errorf("%d trailing bytes", len(b))
	}
	return nil
}
