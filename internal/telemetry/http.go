package telemetry

import (
	"net/http"
	"strconv"
	"time"
)

// statusWriter captures the response status code for the per-route
// status counter.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (sw *statusWriter) WriteHeader(code int) {
	sw.code = code
	sw.ResponseWriter.WriteHeader(code)
}

func (sw *statusWriter) Flush() {
	if f, ok := sw.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// opHTTPRequest is the root span every instrumented HTTP request records.
var opHTTPRequest = SpanOp("http_request")

// InstrumentHTTP wraps next with the standard HTTP telemetry: per-route
// request latency (easeml_http_request_seconds{route}), per-route status
// counters (easeml_http_requests_total{route,code}), trace propagation —
// the inbound X-Easeml-Trace header (or a freshly minted ID, when the
// header is absent or fails ValidTraceID) lands in the request context
// and is echoed on the response — and a root http_request span in the
// flight recorder for every request. Nothing parents under that span: the
// spans the handler's work records (a lease's tree, a WAL group commit)
// are not its children, even when they share its trace.
//
// next must be a ServeMux: a request's route label is the pattern the mux
// matched, or "other" when none did, so the label set is bounded by the
// registered patterns whatever paths clients send. The mux records the
// pattern on the request it is handed, which is the context copy made
// here, so the label is read from that copy.
func InstrumentHTTP(reg *Registry, next http.Handler) http.Handler {
	requests := reg.CounterVec("easeml_http_requests_total",
		"HTTP requests served, by route and status code.", "route", "code")
	latency := reg.HistogramVec("easeml_http_request_seconds",
		"HTTP request latency by route.", "route")
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		ctx, trace := TraceFromRequest(r)
		w.Header().Set(TraceHeader, trace)
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		r = r.WithContext(ctx)
		next.ServeHTTP(sw, r)
		rt := r.Pattern
		if rt == "" {
			rt = "other"
		}
		elapsed := time.Since(t0)
		latency.With(rt).Observe(elapsed)
		code := strconv.Itoa(sw.code)
		requests.With(rt, code).Inc()
		span := SpanAt(trace, "", opHTTPRequest, t0)
		span.SetAttr("route", rt)
		span.SetAttr("method", r.Method)
		span.SetAttr("status", code)
		if sw.code >= http.StatusInternalServerError {
			span.SetAttr("outcome", "error")
		}
		span.EndAt(t0.Add(elapsed))
		if t := SlowOpThreshold(); t > 0 && elapsed >= t {
			SlowOp("http_"+r.Method, elapsed, "route", rt, "status", sw.code, "trace", trace)
		}
	})
}
