package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"time"

	"repro/internal/admission"
	"repro/internal/telemetry"
)

// API wraps a Scheduler with the HTTP surface of the ease.ml service:
//
//	POST /jobs                     submit a declarative job
//	GET  /jobs                     list job ids
//	GET  /jobs/{id}/status         job status and best model
//	POST /jobs/{id}/feed           register example pairs
//	POST /jobs/{id}/refine         toggle an example
//	POST /jobs/{id}/infer          apply the best model
//	POST /jobs/{id}/infer/batch    apply the best model to many inputs at once
//	POST /jobs/{id}/infer/stream   same request, NDJSON streaming reply
//	GET  /metrics                  Prometheus text exposition of all telemetry
//	POST /admin/rounds             run scheduling rounds synchronously
//	POST /admin/snapshot           compact the WAL into the on-disk snapshot
//	POST /admin/start              start the async execution engine
//	POST /admin/stop               stop the engine (graceful drain)
//	GET  /admin/fleet              worker registry + lease/expiry counters
//	GET  /admin/quotas             tenant admission state (classes, caps, budgets)
//	POST /admin/quotas             install or replace one tenant's quota live
//	GET  /admin/traces             flight-recorder trace listing (tenant/job/outcome/min-duration filters)
//	GET  /admin/traces/{id}        one trace's full span tree
//	GET  /admin/decisions          scheduler decision provenance (job/tenant/kind/trace filters)
//	GET  /healthz                  liveness probe
//	GET  /readyz                   readiness probe (WAL recovered, fleet listener up)
//
// The /admin/start|stop endpoints and the easeml_engine_* families of
// GET /metrics operate on the optional EngineControl wired in with
// WithEngine (the easeml facade does this when the service is configured
// with workers). Without one, start/stop answer 409 Conflict and the scrape
// carries no engine families. /admin/fleet likewise reports the optional
// FleetControl wired in with WithFleet, and /admin/quotas the scheduler's
// admission controller (see NewScheduler).
//
// Errors are JSON envelopes {"error": "...", "code": "..."}; code
// "lease_conflict" (HTTP 409) marks lease-lifecycle races — a worker
// double-reporting a result, or reporting after its lease expired — which
// retrying workers should drop, not escalate. Code "quota_exceeded"
// (HTTP 429) marks admission rejections — a tenant over its rate limit or
// concurrent-job cap — which clients should back off from. Code
// "request_too_large" (HTTP 413) marks a body over MaxRequestBytes.
type API struct {
	sched  *Scheduler
	engine EngineControl
	fleet  FleetControl
	// ready is the optional readiness probe behind GET /readyz (see
	// WithReadiness in traces.go); nil reports ready.
	ready func() bool
}

// EngineControl is the engine surface the admin endpoints drive. It is an
// interface so the server layer stays independent of the engine package
// (which imports this one for the lease API); engine.Engine implements it,
// and the easeml facade adds the pool's virtual times to its Status.
type EngineControl interface {
	// Start launches the engine; it errors when already running.
	Start() error
	// Stop gracefully drains and stops the engine; it errors when not
	// running.
	Stop() error
	// Status snapshots the engine counters.
	Status() EngineStatus
}

// EngineWorkerStatus is one engine worker's share of EngineStatus.
type EngineWorkerStatus struct {
	Items int64         // completed training runs
	Busy  time.Duration // wall time spent inside Train
}

// EngineStatus snapshots the engine for the easeml_engine_* families of
// GET /metrics.
type EngineStatus struct {
	Running     bool
	Workers     int
	Completed   int64         // leases settled with a recorded result
	Released    int64         // failed runs handed back for retry
	Abandoned   int64         // candidates retired at the scheduler's retry budget
	Errors      int64         // failed training runs, grants or settles
	InFlight    int           // leases training now
	Uptime      time.Duration // wall time run, summed over the engine's runs
	Utilization float64       // mean busy fraction of the workers over Uptime
	PerWorker   []EngineWorkerStatus
	// Virtual-time accounting of the simulated pool: the multi-device
	// makespan of everything trained so far versus what the serialized
	// single-device strategy would have taken (§5.3.2).
	VirtualMakespan     float64
	VirtualSingleDevice float64
}

// FleetWorkerStatus is the per-worker slice of FleetStatus.
type FleetWorkerStatus struct {
	ID            string  `json:"id"`
	Name          string  `json:"name"`
	Devices       int     `json:"devices"`
	Alpha         float64 `json:"alpha"`
	State         string  `json:"state"` // alive | dead | left
	InFlight      int     `json:"in_flight"`
	Completed     int64   `json:"completed"`
	Failures      int64   `json:"failures"`
	ExpiredLeases int64   `json:"expired_leases"`
	// PreemptedLeases counts leases reclaimed from this worker by priority
	// preemption (guaranteed work displacing best-effort runs).
	PreemptedLeases int64 `json:"preempted_leases"`
	// HeartbeatAgeMS is how long the worker has been silent
	// (registration counts as contact).
	HeartbeatAgeMS float64 `json:"last_heartbeat_age_ms"`
}

// FleetStatus is the GET /admin/fleet reply: the worker registry and the
// coordinator's lease counters.
type FleetStatus struct {
	LeaseTTLMS    float64 `json:"lease_ttl_ms"`
	HeartbeatMS   float64 `json:"heartbeat_ms"`
	Alive         int     `json:"alive"`
	Dead          int     `json:"dead"`
	Left          int     `json:"left"`
	RemoteLeases  int     `json:"remote_leases"`
	ExpiredLeases int64   `json:"expired_leases"`
	// PreemptedLeases counts leases reclaimed fleet-wide by priority
	// preemption.
	PreemptedLeases int64               `json:"preempted_leases"`
	Workers         []FleetWorkerStatus `json:"workers,omitempty"`
}

// FleetControl is the coordinator surface the admin endpoint reads. It is
// an interface so the server layer stays independent of internal/fleet
// (which imports this package for the lease API).
type FleetControl interface {
	// FleetStatus snapshots the worker registry and lease counters.
	FleetStatus() FleetStatus
}

// NewAPI wraps a scheduler.
func NewAPI(sched *Scheduler) *API { return &API{sched: sched} }

// WithEngine attaches an engine control to the admin surface and returns
// the API for chaining.
func (a *API) WithEngine(ctrl EngineControl) *API {
	a.engine = ctrl
	return a
}

// WithFleet attaches a fleet coordinator to the admin surface and returns
// the API for chaining.
func (a *API) WithFleet(ctrl FleetControl) *API {
	a.fleet = ctrl
	return a
}

// Handler returns the HTTP handler for the service: the API routes plus
// GET /metrics (Prometheus exposition), the whole surface wrapped in the
// telemetry middleware — per-route latency histograms, status-code
// counters and X-Easeml-Trace propagation.
func (a *API) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/jobs", a.handleJobs)
	mux.HandleFunc("/jobs/", a.handleJobOp)
	mux.HandleFunc("/metrics", a.handlePrometheus)
	mux.HandleFunc("/admin/rounds", a.handleRounds)
	mux.HandleFunc("/admin/snapshot", a.handleSnapshot)
	mux.HandleFunc("/admin/start", a.handleEngineStart)
	mux.HandleFunc("/admin/stop", a.handleEngineStop)
	mux.HandleFunc("/admin/fleet", a.handleFleet)
	mux.HandleFunc("/admin/quotas", a.handleQuotas)
	mux.HandleFunc("/admin/traces", a.handleTraces)
	mux.HandleFunc("/admin/traces/", a.handleTraces)
	mux.HandleFunc("/admin/decisions", a.handleDecisions)
	mux.HandleFunc("/healthz", a.handleHealthz)
	mux.HandleFunc("/readyz", a.handleReadyz)
	return telemetry.InstrumentHTTP(telemetry.Default(), RouteLabel, mux)
}

// SubmitRequest is the POST /jobs payload.
type SubmitRequest struct {
	Name    string `json:"name"`
	Program string `json:"program"`
}

// SubmitResponse is the POST /jobs reply.
type SubmitResponse struct {
	ID         string   `json:"id"`
	Template   string   `json:"template"`
	Candidates []string `json:"candidates"`
	Julia      string   `json:"julia"`
	Python     string   `json:"python"`
}

// FeedRequest is the POST /jobs/{id}/feed payload: Inputs[i] pairs with
// Outputs[i]. The whole request is one WAL commit, acknowledged once every
// example in it is fsynced. Examples are taken in order and the first one
// refused (wrong width or a NaN/±Inf value: 400; tenant over its rate
// limit: 429) ends the request: the error envelope's "ids" are the
// examples before it, which are committed — resume from input len(ids).
// Like InferRequest and InferBatchRequest it travels as JSON or as a
// tensor body (TensorContentType).
type FeedRequest struct {
	Inputs  [][]float64 `json:"inputs"`
	Outputs [][]float64 `json:"outputs"`
}

// FeedResponse is the feed reply.
type FeedResponse struct {
	IDs []int `json:"ids"`
}

// RefineRequest is the POST /jobs/{id}/refine payload.
type RefineRequest struct {
	Example int  `json:"example"`
	Enabled bool `json:"enabled"`
}

// InferRequest is the POST /jobs/{id}/infer payload.
type InferRequest struct {
	Input []float64 `json:"input"`
}

// InferResponse is the infer reply.
type InferResponse struct {
	Output []float64 `json:"output"`
	Model  string    `json:"model"`
}

// RoundsRequest is the POST /admin/rounds payload.
type RoundsRequest struct {
	Count int `json:"count"`
}

// RoundsResponse is the rounds reply.
type RoundsResponse struct {
	Ran   int `json:"ran"`
	Total int `json:"total"`
}

func (a *API) handleJobs(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		var ids []string
		for _, j := range a.sched.Jobs() {
			ids = append(ids, j.ID)
		}
		WriteJSON(w, http.StatusOK, map[string][]string{"jobs": ids})
	case http.MethodPost:
		var req SubmitRequest
		if !ReadJSON(w, r, &req) {
			return
		}
		job, err := a.sched.Submit(req.Name, req.Program)
		if err != nil {
			WriteError(w, userErrStatus(err), err)
			return
		}
		resp := SubmitResponse{ID: job.ID, Template: job.Template, Candidates: job.CandidateNames(), Julia: job.Julia, Python: job.Python}
		WriteJSON(w, http.StatusCreated, resp)
	default:
		WriteError(w, http.StatusMethodNotAllowed, errors.New("use GET or POST"))
	}
}

func (a *API) handleJobOp(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/jobs/")
	parts := strings.SplitN(rest, "/", 2)
	if len(parts) != 2 || parts[0] == "" {
		WriteError(w, http.StatusNotFound, errors.New("use /jobs/{id}/{op}"))
		return
	}
	id, op := parts[0], parts[1]
	switch op {
	case "status":
		if r.Method != http.MethodGet {
			WriteError(w, http.StatusMethodNotAllowed, errors.New("use GET"))
			return
		}
		st, err := a.sched.Status(id)
		if err != nil {
			WriteError(w, http.StatusNotFound, err)
			return
		}
		WriteJSON(w, http.StatusOK, st)
	case "feed":
		var req FeedRequest
		if !requirePost(w, r) || !readFloatBody(w, r, &req) {
			return
		}
		if len(req.Inputs) != len(req.Outputs) {
			WriteError(w, http.StatusBadRequest,
				fmt.Errorf("%d inputs vs %d outputs", len(req.Inputs), len(req.Outputs)))
			return
		}
		ids, err := a.sched.FeedBatch(id, req.Inputs, req.Outputs)
		if err != nil {
			// The examples before the refused one are already durably
			// committed; the error envelope carries their IDs so the client
			// knows what committed and can resume from input len(ids).
			body := errorBody(err)
			body.IDs = ids
			WriteJSON(w, userErrStatus(err), body)
			return
		}
		WriteJSON(w, http.StatusOK, FeedResponse{IDs: ids})
	case "refine":
		var req RefineRequest
		if !requirePost(w, r) || !ReadJSON(w, r, &req) {
			return
		}
		if err := a.sched.Refine(id, req.Example, req.Enabled); err != nil {
			WriteError(w, userErrStatus(err), err)
			return
		}
		WriteJSON(w, http.StatusOK, map[string]bool{"ok": true})
	case "infer":
		var req InferRequest
		if !requirePost(w, r) || !readFloatBody(w, r, &req) {
			return
		}
		out, model, err := a.sched.Infer(id, req.Input)
		if err != nil {
			WriteError(w, userErrStatus(err), err)
			return
		}
		WriteJSON(w, http.StatusOK, InferResponse{Output: out, Model: model})
	case "infer/batch":
		a.handleInferBatch(w, r, id)
	case "infer/stream":
		a.handleInferStream(w, r, id)
	default:
		WriteError(w, http.StatusNotFound, fmt.Errorf("unknown operation %q", op))
	}
}

func (a *API) handleRounds(w http.ResponseWriter, r *http.Request) {
	var req RoundsRequest
	if !requirePost(w, r) || !ReadJSON(w, r, &req) {
		return
	}
	if req.Count <= 0 {
		WriteError(w, http.StatusBadRequest, fmt.Errorf("count %d must be positive", req.Count))
		return
	}
	ran, err := a.sched.RunRounds(req.Count)
	if err != nil {
		// A lease conflict is a settle race (e.g. workers double-reporting),
		// not a server fault: 409 tells the caller to drop the retry.
		if errors.Is(err, ErrLeaseConflict) {
			WriteError(w, http.StatusConflict, err)
			return
		}
		WriteError(w, http.StatusInternalServerError, err)
		return
	}
	WriteJSON(w, http.StatusOK, RoundsResponse{Ran: ran, Total: a.sched.Rounds()})
}

// QuotaStatus is one tenant's row in the GET /admin/quotas reply: the
// declared quota plus the scheduler's live usage.
type QuotaStatus struct {
	admission.TenantStatus
	// CostUsed is the total GPU cost the tenant's jobs have paid — the
	// quantity Budget is enforced against.
	CostUsed float64 `json:"cost_used"`
	// BudgetExhausted marks tenants whose jobs were drained because the
	// budget ran out.
	BudgetExhausted bool `json:"budget_exhausted,omitempty"`
}

// QuotasResponse is the GET /admin/quotas reply.
type QuotasResponse struct {
	DefaultClass admission.Class `json:"default_class"`
	Tenants      []QuotaStatus   `json:"tenants"`
}

// SetQuotaRequest is the POST /admin/quotas payload: one tenant's new
// quota, applied live (class changes affect jobs submitted from then on;
// rate, cap and budget changes apply immediately).
type SetQuotaRequest struct {
	Tenant string `json:"tenant"`
	admission.Quota
}

// quotaRows builds the per-tenant status rows of GET /admin/quotas: the
// declared quota, live usage and cost, and the budget-exhausted flag.
func (a *API) quotaRows() []QuotaStatus {
	costs := a.sched.TenantCosts()
	exhausted := make(map[string]bool)
	for _, job := range a.sched.Jobs() {
		if a.sched.BudgetExhausted(job.ID) {
			exhausted[job.Name] = true
		}
	}
	var rows []QuotaStatus
	for _, ts := range a.sched.adm.Snapshot() {
		rows = append(rows, QuotaStatus{
			TenantStatus:    ts,
			CostUsed:        costs[ts.Tenant],
			BudgetExhausted: exhausted[ts.Tenant],
		})
	}
	return rows
}

// handleQuotas serves GET/POST /admin/quotas over the admission controller
// the scheduler was built with; a scheduler built without one answers 409.
func (a *API) handleQuotas(w http.ResponseWriter, r *http.Request) {
	adm := a.sched.adm
	if adm == nil {
		WriteError(w, http.StatusConflict, errors.New("no admission controller configured (run the server with -quota-config)"))
		return
	}
	switch r.Method {
	case http.MethodGet:
		WriteJSON(w, http.StatusOK, QuotasResponse{DefaultClass: adm.DefaultClass(), Tenants: a.quotaRows()})
	case http.MethodPost:
		var req SetQuotaRequest
		if !ReadJSON(w, r, &req) {
			return
		}
		if err := adm.SetQuota(req.Tenant, req.Quota); err != nil {
			WriteError(w, http.StatusBadRequest, err)
			return
		}
		WriteJSON(w, http.StatusOK, map[string]bool{"ok": true})
	default:
		WriteError(w, http.StatusMethodNotAllowed, errors.New("use GET or POST"))
	}
}

func (a *API) handleFleet(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		WriteError(w, http.StatusMethodNotAllowed, errors.New("use GET"))
		return
	}
	if a.fleet == nil {
		WriteError(w, http.StatusConflict, errors.New("no fleet coordinator configured (run the server with a fleet address)"))
		return
	}
	WriteJSON(w, http.StatusOK, a.fleet.FleetStatus())
}

func (a *API) handleEngineStart(w http.ResponseWriter, r *http.Request) {
	if !requirePost(w, r) {
		return
	}
	if a.engine == nil {
		WriteError(w, http.StatusConflict, errors.New("no engine configured (run the server with workers)"))
		return
	}
	if err := a.engine.Start(); err != nil {
		WriteError(w, http.StatusConflict, err)
		return
	}
	WriteJSON(w, http.StatusOK, map[string]bool{"running": true})
}

func (a *API) handleEngineStop(w http.ResponseWriter, r *http.Request) {
	if !requirePost(w, r) {
		return
	}
	if a.engine == nil {
		WriteError(w, http.StatusConflict, errors.New("no engine configured (run the server with workers)"))
		return
	}
	if err := a.engine.Stop(); err != nil {
		WriteError(w, http.StatusConflict, err)
		return
	}
	WriteJSON(w, http.StatusOK, map[string]bool{"running": false})
}

// handleSnapshot is the compaction trigger: it folds the write-ahead log
// into the data directory's snapshot and retires every segment the
// snapshot covers. The query string is ignored.
func (a *API) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	if !requirePost(w, r) {
		return
	}
	if !a.sched.Persistent() {
		WriteError(w, http.StatusConflict, errors.New("no data dir configured (run the server with -data-dir)"))
		return
	}
	if err := a.sched.Compact(); err != nil {
		WriteError(w, http.StatusInternalServerError, err)
		return
	}
	WriteJSON(w, http.StatusOK, map[string]bool{"compacted": true})
}

func requirePost(w http.ResponseWriter, r *http.Request) bool {
	if r.Method != http.MethodPost {
		WriteError(w, http.StatusMethodNotAllowed, errors.New("use POST"))
		return false
	}
	return true
}

// MaxRequestBytes bounds every request body: a feed's decoded events stay
// pinned in the WAL commit queue until their fsync, so an unbounded body is
// unbounded memory. A bulk feed of 512 768-float examples is ≈ 3.1 MB as a
// tensor body (8 bytes per float) and ≈ 7.4 MB as JSON (≈ 19 bytes of text
// per float).
const MaxRequestBytes = 32 << 20

// ReadJSON decodes a request body strictly (unknown fields rejected),
// answering 400 with the standard error envelope on failure — 413 with
// CodeRequestTooLarge for a body over MaxRequestBytes. It is shared with
// the fleet coordinator's handlers so every HTTP surface speaks one
// envelope.
func ReadJSON(w http.ResponseWriter, r *http.Request, dst any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxRequestBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		writeBodyError(w, "invalid JSON", err)
		return false
	}
	return true
}

// writeBodyError answers a request body that failed to read or decode: 413
// with CodeRequestTooLarge past MaxRequestBytes, else 400 "what: err".
func writeBodyError(w http.ResponseWriter, what string, err error) {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		WriteJSON(w, http.StatusRequestEntityTooLarge, ErrorBody{
			Error: fmt.Sprintf("request body exceeds %d bytes", tooLarge.Limit),
			Code:  CodeRequestTooLarge,
		})
		return
	}
	WriteError(w, http.StatusBadRequest, fmt.Errorf("%s: %w", what, err))
}

// WriteJSON writes v as the JSON response body under the given status.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// ErrorBody is the JSON error envelope of every non-2xx reply. Code
// machine-tags the error class so clients can branch without parsing the
// message; CodeLeaseConflict, CodeQuotaExceeded and CodeRequestTooLarge are
// the codes so far.
type ErrorBody struct {
	Error string `json:"error"`
	Code  string `json:"code,omitempty"`
	// IDs carries the example IDs a partially-failed feed batch had
	// already durably committed before the error — set only by the feed
	// handler, so clients can resume instead of re-feeding duplicates.
	IDs []int `json:"ids,omitempty"`
}

// CodeLeaseConflict tags HTTP 409 replies caused by ErrLeaseConflict.
const CodeLeaseConflict = "lease_conflict"

// CodeQuotaExceeded tags HTTP 429 replies caused by
// admission.ErrQuotaExceeded (rate limit, concurrent-job cap, budget).
const CodeQuotaExceeded = "quota_exceeded"

// CodeRequestTooLarge tags HTTP 413 replies: the request body exceeded
// MaxRequestBytes.
const CodeRequestTooLarge = "request_too_large"

// userErrStatus maps a user-facing mutation error onto its HTTP status:
// admission rejections are 429 Too Many Requests, unknown job IDs are 404
// Not Found, everything else is the caller's fault (400).
func userErrStatus(err error) int {
	switch {
	case errors.Is(err, admission.ErrQuotaExceeded):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrNoJob):
		return http.StatusNotFound
	}
	return http.StatusBadRequest
}

// WriteError writes the standard error envelope, tagging ErrLeaseConflict
// chains with CodeLeaseConflict and admission.ErrQuotaExceeded chains with
// CodeQuotaExceeded. Shared with the fleet handlers, so the conflict
// mapping cannot drift between the two HTTP surfaces.
func WriteError(w http.ResponseWriter, status int, err error) {
	WriteJSON(w, status, errorBody(err))
}

// errorBody builds the envelope for err, tagging the known error classes.
// Split from WriteError so handlers that enrich the envelope (feed's
// partial-commit IDs) keep the same code mapping.
func errorBody(err error) ErrorBody {
	body := ErrorBody{Error: err.Error()}
	switch {
	case errors.Is(err, ErrLeaseConflict):
		body.Code = CodeLeaseConflict
	case errors.Is(err, admission.ErrQuotaExceeded):
		body.Code = CodeQuotaExceeded
	}
	return body
}
