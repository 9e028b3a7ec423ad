package server

import (
	"errors"
	"net/http"
	"strconv"
	"time"

	"repro/internal/telemetry"
)

// Admin surface of the observability layer: the flight recorder's trace
// listing and span trees (GET /admin/traces, /admin/traces/{id}), the
// scheduler's decision-provenance ring (GET /admin/decisions), and the
// health probes (/healthz, /readyz).

// TracesResponse is the GET /admin/traces reply.
type TracesResponse struct {
	Traces []telemetry.TraceSummary `json:"traces"`
	// Capacity is the flight recorder's per-ring span capacity
	// (-trace-buffer), so an operator reading an incomplete listing knows
	// the retention window.
	Capacity int `json:"capacity"`
}

// TraceResponse is the GET /admin/traces/{id} reply: the assembled span
// tree. Span-level wal_seq attributes compare against the scrape's
// easeml_wal_seq, the horizon recovery would replay to.
type TraceResponse struct {
	TraceID string                `json:"trace"`
	Spans   int                   `json:"spans"`
	Tree    []*telemetry.SpanNode `json:"tree"`
}

// DecisionsResponse is the GET /admin/decisions reply.
type DecisionsResponse struct {
	Decisions []DecisionRecord `json:"decisions"`
}

func (a *API) handleTraces(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	f := telemetry.TraceFilter{
		Tenant:  q.Get("tenant"),
		Job:     q.Get("job"),
		Outcome: q.Get("outcome"),
		Limit:   100,
	}
	if v := q.Get("min_duration"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil {
			WriteError(w, http.StatusBadRequest, errors.New("min_duration: use a Go duration like 50ms"))
			return
		}
		f.MinDuration = d
	}
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			WriteError(w, http.StatusBadRequest, errors.New("limit: use a positive integer"))
			return
		}
		f.Limit = n
	}
	rec := telemetry.DefaultRecorder()
	traces := rec.Traces(f)
	if traces == nil {
		traces = []telemetry.TraceSummary{}
	}
	WriteJSON(w, http.StatusOK, TracesResponse{Traces: traces, Capacity: rec.Capacity()})
}

func (a *API) handleTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	spans, ok := telemetry.DefaultRecorder().Trace(id)
	if !ok {
		WriteError(w, http.StatusNotFound, errors.New("trace not recorded (never seen, or overwritten in the ring)"))
		return
	}
	WriteJSON(w, http.StatusOK, TraceResponse{TraceID: id, Spans: len(spans), Tree: telemetry.BuildSpanTree(spans)})
}

func (a *API) handleDecisions(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	f := DecisionFilter{
		Job:    q.Get("job"),
		Tenant: q.Get("tenant"),
		Kind:   q.Get("kind"),
		Trace:  q.Get("trace"),
		Limit:  100,
	}
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			WriteError(w, http.StatusBadRequest, errors.New("limit: use a positive integer"))
			return
		}
		f.Limit = n
	}
	decisions := a.sched.Decisions(f)
	if decisions == nil {
		decisions = []DecisionRecord{}
	}
	WriteJSON(w, http.StatusOK, DecisionsResponse{Decisions: decisions})
}

// WithReadiness attaches the readiness probe GET /readyz answers from
// (nil, the default, reports ready — an API wired by hand in tests has no
// boot sequence to wait out). The easeml facade wires a check for "WAL
// recovery finished and the fleet listener is accepting".
func (a *API) WithReadiness(ready func() bool) *API {
	a.ready = ready
	return a
}

func (a *API) handleHealthz(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, map[string]bool{"ok": true})
}

func (a *API) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if a.ready != nil && !a.ready() {
		WriteJSON(w, http.StatusServiceUnavailable, map[string]bool{"ready": false})
		return
	}
	WriteJSON(w, http.StatusOK, map[string]bool{"ready": true})
}
