package server

import (
	"bytes"
	"io"
	"net/http"
	"strconv"

	"repro/internal/telemetry"
)

// Float-array request bodies — feed, infer, infer/batch, infer/stream — are
// almost all numbers, and encoding/json spends its time on them in
// reflection and its general scanner. readFloatBody reads such a body whole
// and decodes the one shape clients marshal with a dedicated scanner: an
// object whose keys are exactly the request's lowercase field names,
// unescaped and each at most once, holding arrays (or arrays of arrays) of
// JSON numbers. The numbers are checked against the JSON grammar and parsed
// by strconv.ParseFloat, the call encoding/json makes, so the values are
// bit-identical. Anything else — null, escapes, other keys or key case,
// numbers ParseFloat refuses, trailing bytes — falls back to ReadJSON's
// strict decoder over the same bytes, so every error and edge case answers
// exactly as before. FuzzFloatBody checks that the scanner accepts nothing
// encoding/json rejects and decodes what it accepts identically.

var floatBodyDecodes = telemetry.Default().CounterVec("easeml_float_body_decodes_total",
	"Float-array request bodies (feed, infer, infer/batch, infer/stream) by decoder: fast (the canonical-form scanner) or fallback (encoding/json).",
	"decoder")

// floatField binds one body key to the request field it fills: a vector
// (vec) or a matrix (mat).
type floatField struct {
	key string
	vec *[]float64
	mat *[][]float64
}

// readFloatBody decodes a float-array request body into dst, whose
// float-array fields are fields (and which has no others). Like ReadJSON it
// answers 400 or 413 itself and reports false on failure.
func readFloatBody(w http.ResponseWriter, r *http.Request, dst any, fields ...floatField) bool {
	body := http.MaxBytesReader(w, r.Body, MaxRequestBytes)
	var buf bytes.Buffer
	if n := r.ContentLength; n > 0 && n <= MaxRequestBytes {
		// Room for the whole body and the read that sees EOF: no regrowth.
		buf.Grow(int(n) + bytes.MinRead)
	}
	_, err := buf.ReadFrom(body)
	if err == nil && scanFloatBody(buf.Bytes(), fields) {
		floatBodyDecodes.With("fast").Inc()
		return true
	}
	for _, f := range fields {
		if f.vec != nil {
			*f.vec = nil
		} else {
			*f.mat = nil
		}
	}
	floatBodyDecodes.With("fallback").Inc()
	// What was read, then whatever the reader still has to say (EOF, or
	// the size limit's error): the strict decoder sees the stream ReadJSON
	// would have.
	return decodeJSON(w, io.MultiReader(bytes.NewReader(buf.Bytes()), body), dst)
}

// scanFloatBody decodes b into fields when b has the canonical shape, and
// reports whether it did. On false the fields may be partly written.
func scanFloatBody(b []byte, fields []floatField) bool {
	s := floatScanner{b: b}
	var seen uint64 // bit k: fields[k] already read
	ok := s.list('{', '}', func() bool {
		k := s.key(fields)
		if k < 0 || seen&(1<<k) != 0 || !s.consume(':') {
			return false
		}
		seen |= 1 << k
		var ok bool
		if f := fields[k]; f.vec != nil {
			*f.vec, ok = s.vector()
		} else {
			*f.mat, ok = s.matrix()
		}
		return ok
	})
	s.skipSpace()
	return ok && s.i == len(s.b)
}

// floatScanner walks a body; i is the next unread byte.
type floatScanner struct {
	b []byte
	i int
}

func (s *floatScanner) skipSpace() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

// consume skips whitespace, then c if it is next, reporting whether it was.
func (s *floatScanner) consume(c byte) bool {
	s.skipSpace()
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// key reads an object key and returns the index of the field it names
// exactly, or -1. A key with an escape or a control byte names no field.
func (s *floatScanner) key(fields []floatField) int {
	if !s.consume('"') {
		return -1
	}
	end := bytes.IndexByte(s.b[s.i:], '"')
	if end < 0 {
		return -1
	}
	name := s.b[s.i : s.i+end]
	s.i += end + 1
	for k, f := range fields {
		if string(name) == f.key {
			return k
		}
	}
	return -1
}

// list reads open, then elements separated by commas, then close; elem
// reads one element.
func (s *floatScanner) list(open, close byte, elem func() bool) bool {
	if !s.consume(open) {
		return false
	}
	if s.consume(close) {
		return true
	}
	for elem() {
		if s.consume(close) {
			return true
		}
		if !s.consume(',') {
			return false
		}
	}
	return false
}

// matrix reads an array of vectors. Like encoding/json, it and vector
// read [] as an empty, non-nil slice.
func (s *floatScanner) matrix() ([][]float64, bool) {
	m := [][]float64{}
	ok := s.list('[', ']', func() bool {
		v, ok := s.vector()
		m = append(m, v)
		return ok
	})
	return m, ok
}

// vector reads an array of numbers into a slice allocated once, at the
// size the commas before the next ']' announce.
func (s *floatScanner) vector() ([]float64, bool) {
	s.skipSpace()
	end := max(bytes.IndexByte(s.b[s.i:], ']'), 0)
	v := make([]float64, 0, bytes.Count(s.b[s.i:s.i+end], []byte{','})+1)
	ok := s.list('[', ']', func() bool {
		x, ok := s.number()
		v = append(v, x)
		return ok
	})
	return v, ok
}

// number reads one number in JSON's grammar,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, and parses it with
// strconv.ParseFloat; false for anything else or a value ParseFloat
// refuses (out of range).
func (s *floatScanner) number() (float64, bool) {
	s.skipSpace()
	b, i := s.b, s.i
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = digits(b, i)
	default:
		return 0, false
	}
	if i < len(b) && b[i] == '.' {
		j := digits(b, i+1)
		if j == i+1 {
			return 0, false
		}
		i = j
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := digits(b, i)
		if j == i {
			return 0, false
		}
		i = j
	}
	x, err := strconv.ParseFloat(string(b[s.i:i]), 64)
	if err != nil {
		return 0, false
	}
	s.i = i
	return x, true
}

// digits returns the index of the first non-digit at or after i.
func digits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}
