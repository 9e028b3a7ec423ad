package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/fleet"
	"repro/internal/templates"
)

// spanHeader carries the client-side span id to the handler middleware so
// the handler span parents under the round trip that caused it. The product
// ignores headers it does not know.
const spanHeader = "X-Bench-Span"

// routeName maps a request to the short route key used in metric names
// (http.<route>.*, client.<route>.*).
func routeName(method, path string) string {
	switch {
	case path == "/jobs" && method == http.MethodPost:
		return "submit"
	case path == "/jobs":
		return "jobs"
	case path == "/metrics":
		return "metrics"
	case strings.HasPrefix(path, "/fleet/"):
		if strings.HasPrefix(path, "/fleet/job") {
			return "fleet_job"
		}
		return "fleet_" + strings.TrimPrefix(path, "/fleet/")
	case strings.HasPrefix(path, "/jobs/"):
		rest := strings.TrimPrefix(path, "/jobs/")
		if i := strings.IndexByte(rest, '/'); i >= 0 {
			return strings.ReplaceAll(rest[i+1:], "/", "_")
		}
	}
	return "other"
}

// routeStats tallies one route's traffic at a boundary.
type routeStats struct {
	Count     int
	ReqBytes  int64
	RespBytes int64
}

// boundaryStats is the count half of a traced boundary: per-route request
// and response bytes, recorded where the work happens.
type boundaryStats struct {
	mu     sync.Mutex
	routes map[string]*routeStats
}

func (b *boundaryStats) add(route string, req, resp int64) {
	b.mu.Lock()
	if b.routes == nil {
		b.routes = map[string]*routeStats{}
	}
	r := b.routes[route]
	if r == nil {
		r = &routeStats{}
		b.routes[route] = r
	}
	r.Count++
	r.ReqBytes += req
	r.RespBytes += resp
	b.mu.Unlock()
}

// total is the request count over all routes.
func (b *boundaryStats) total() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	n := 0
	for _, r := range b.routes {
		n += r.Count
	}
	return n
}

func (b *boundaryStats) get(route string) routeStats {
	b.mu.Lock()
	defer b.mu.Unlock()
	if r := b.routes[route]; r != nil {
		return *r
	}
	return routeStats{}
}

// leaseCycle is one fleet lease as the agent's transport and executor saw
// it: the poll that granted it, the execution, the completion report.
type leaseCycle struct {
	Job, Cand                   string
	LeaseSent, LeaseDone        time.Time
	ExecStart, ExecEnd          time.Time
	CompleteSent, CompleteAcked time.Time
}

// cycleTable joins the three observations of a lease by lease id (transport)
// and by (job, candidate) (executor — it never sees the lease id).
type cycleTable struct {
	mu     sync.Mutex
	byID   map[int]*leaseCycle
	byWork map[string]*leaseCycle
}

func newCycleTable() *cycleTable {
	return &cycleTable{byID: map[int]*leaseCycle{}, byWork: map[string]*leaseCycle{}}
}

func workKey(job, cand string) string { return job + "\x00" + cand }

// tracingTransport is the harness's http.RoundTripper: one span per round
// trip (request written → response body fully read), byte counts per route,
// and — for the fleet protocol — the lease/complete bookkeeping behind the
// cycle decomposition. It buffers bodies, which is why the untraced run does
// not use it.
type tracingTransport struct {
	next   http.RoundTripper
	tr     *tracer
	stats  *boundaryStats
	cycles *cycleTable // nil outside fleet workloads
}

type parentKey struct{}

// withParent marks the span that outgoing requests on ctx belong to.
func withParent(ctx context.Context, id int32, op uint64) context.Context {
	return context.WithValue(ctx, parentKey{}, [2]uint64{uint64(id), op})
}

func parentOf(ctx context.Context) (int32, uint64) {
	if v, ok := ctx.Value(parentKey{}).([2]uint64); ok {
		return int32(v[0]), v[1]
	}
	return 0, 0
}

func (t *tracingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	route := routeName(req.Method, req.URL.Path)
	var reqBody []byte
	if req.Body != nil && t.cycles != nil && route == "fleet_complete" {
		reqBody, _ = io.ReadAll(req.Body)
		req.Body.Close()
	}
	parent, op := parentOf(req.Context())
	out := req.Clone(req.Context())
	if reqBody != nil {
		out.Body = io.NopCloser(bytes.NewReader(reqBody))
	}
	start := time.Now()
	id := t.tr.begin("client."+route, parent, op)
	out.Header.Set(spanHeader, strconv.Itoa(int(id)))
	resp, err := t.next.RoundTrip(out)
	if err != nil {
		t.tr.end(id)
		return nil, err
	}
	body, rerr := io.ReadAll(resp.Body)
	resp.Body.Close()
	t.tr.end(id)
	end := time.Now()
	if rerr != nil {
		return nil, rerr
	}
	resp.Body = io.NopCloser(bytes.NewReader(body))
	t.stats.add(route, req.ContentLength, int64(len(body)))
	if t.cycles != nil && resp.StatusCode == http.StatusOK {
		t.noteFleet(route, reqBody, body, start, end)
	}
	return resp, nil
}

func (t *tracingTransport) noteFleet(route string, reqBody, respBody []byte, start, end time.Time) {
	switch route {
	case "fleet_lease":
		var lr fleet.LeaseResponse
		if json.Unmarshal(respBody, &lr) != nil {
			return
		}
		t.cycles.mu.Lock()
		for _, wl := range lr.Leases {
			c := &leaseCycle{Job: wl.JobID, Cand: wl.Candidate, LeaseSent: start, LeaseDone: end}
			t.cycles.byID[wl.LeaseID] = c
			t.cycles.byWork[workKey(wl.JobID, wl.Candidate)] = c
		}
		t.cycles.mu.Unlock()
	case "fleet_complete":
		var cr fleet.CompleteRequest
		if json.Unmarshal(reqBody, &cr) != nil {
			return
		}
		t.cycles.mu.Lock()
		if c := t.cycles.byID[cr.LeaseID]; c != nil {
			c.CompleteSent, c.CompleteAcked = start, end
		}
		t.cycles.mu.Unlock()
	}
}

// countingWriter counts response bytes and keeps streaming handlers
// flushable.
type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (w *countingWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.n += int64(n)
	return n, err
}

func (w *countingWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// traceHandler wraps the served handler: one span per request (parented
// under the client span named in the header) plus byte counts per route.
func traceHandler(tr *tracer, stats *boundaryStats, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		route := routeName(r.Method, r.URL.Path)
		parent, _ := strconv.Atoi(r.Header.Get(spanHeader))
		id := tr.begin("http."+route, int32(parent), 0)
		cw := &countingWriter{ResponseWriter: w}
		next.ServeHTTP(cw, r)
		tr.end(id)
		stats.add(route, r.ContentLength, cw.n)
	})
}

// tracingExecutor wraps the fleet.Executor handed to the agent: one span per
// execution, and the execute leg of the lease cycle.
type tracingExecutor struct {
	next   fleet.Executor
	tr     *tracer
	cycles *cycleTable
}

func (x *tracingExecutor) Execute(ctx context.Context, jobID string, cand templates.Candidate) (float64, float64, error) {
	start := time.Now()
	acc, cost, err := x.next.Execute(ctx, jobID, cand)
	end := time.Now()
	x.tr.record("fleet.execute", 0, 0, start, end)
	x.cycles.mu.Lock()
	if c := x.cycles.byWork[workKey(jobID, cand.Name())]; c != nil {
		c.ExecStart, c.ExecEnd = start, end
	}
	x.cycles.mu.Unlock()
	return acc, cost, err
}

// RegisterJob forwards fleet.JobAware so the wrapped SimExecutor still
// learns each job's candidate surface.
func (x *tracingExecutor) RegisterJob(jobID string, cands []templates.Candidate) error {
	if ja, ok := x.next.(fleet.JobAware); ok {
		return ja.RegisterJob(jobID, cands)
	}
	return nil
}
