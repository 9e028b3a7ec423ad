package telemetry

import (
	"context"
	"math/rand/v2"
	"net/http"
)

// TraceHeader is the wire contract for trace propagation: every HTTP
// surface (service API, fleet protocol) reads it on the way in, stamps it
// on the way out, and the fleet client forwards it on every request it
// makes on behalf of a traced operation. The value is an opaque lowercase
// hex token minted by NewTraceID.
const TraceHeader = "X-Easeml-Trace"

type traceCtxKey struct{}

// NewTraceID mints a 16-hex-char trace ID. It draws from the runtime's
// per-P random source, so minting on the pick path (one ID per lease)
// costs no synchronization.
func NewTraceID() string { return hexString(rand.Uint64(), 16) }

// hexString renders the low 4·n bits of v as n zero-padded lowercase hex
// digits (n ≤ 16), in one allocation of exactly n bytes.
func hexString(v uint64, n int) string {
	const digits = "0123456789abcdef"
	var buf [16]byte
	for i := n - 1; i >= 0; i-- {
		buf[i] = digits[v&0xf]
		v >>= 4
	}
	return string(buf[:n])
}

// ValidTraceID bounds what we accept off the wire: 1–64 chars of
// [0-9a-zA-Z_-]. Anything else is dropped and replaced with a fresh ID,
// so a hostile header never lands verbatim in logs or responses.
func ValidTraceID(s string) bool {
	if len(s) == 0 || len(s) > 64 {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= '0' && c <= '9', c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '-', c == '_':
		default:
			return false
		}
	}
	return true
}

// WithTraceID returns ctx carrying the trace ID.
func WithTraceID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, traceCtxKey{}, id)
}

// TraceIDFrom returns the trace ID carried by ctx, or "".
func TraceIDFrom(ctx context.Context) string {
	id, _ := ctx.Value(traceCtxKey{}).(string)
	return id
}

// TraceFromRequest extracts the inbound trace ID from r's X-Easeml-Trace
// header (minting one when absent or invalid) and returns a context
// carrying it. Handlers thread the returned context through their work so
// downstream logs and outbound calls share the request's trace.
func TraceFromRequest(r *http.Request) (context.Context, string) {
	if id := r.Header.Get(TraceHeader); ValidTraceID(id) {
		return WithTraceID(r.Context(), id), id
	}
	id := NewTraceID()
	return WithTraceID(r.Context(), id), id
}

// SetTraceHeader stamps the trace ID from ctx (if any) onto an outbound
// request or response header set.
func SetTraceHeader(h http.Header, ctx context.Context) {
	if id := TraceIDFrom(ctx); id != "" {
		h.Set(TraceHeader, id)
	}
}
