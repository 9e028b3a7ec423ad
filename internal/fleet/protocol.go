// Package fleet turns the scheduler's two-phase lease API into a real
// distributed execution layer: a coordinator exposes PickWork/Complete over
// HTTP, and elastic worker agents (cmd/easeml-worker, or in-process Agents)
// register with their capabilities, poll for leases, execute them through a
// pluggable Executor, stream heartbeats and report results. Leases carry a
// TTL — a worker that dies mid-training goes silent, its leases expire, and
// the expiry sweeper re-queues the candidates into GP-BUCB selection
// exactly once — so the fleet survives worker churn without losing or
// double-counting work.
//
// Every grant goes through the scheduler's user picker (Scheduler.Grant),
// so class weights and σ̃ fair sharing decide who trains next on the fleet
// exactly as they do in-process. A busy slot spends one round trip per
// cycle: its report embeds the request for its next lease and the answer
// carries it (settle-and-lease); /fleet/lease serves the cold and idle slots.
//
//	            register/heartbeat          ┌──────────┐
//	  ┌──────────────────────────────────── │ agent 0  │──Execute──▶ Executor
//	  ▼                                     └──────────┘             (trainsim,
//	coordinator ──lease──▶ agents … ──complete(+lease)──▶ coordinator  or yours)
//	  │
//	  ├── registry: join/leave/dead, per-worker in-flight + failures
//	  └── sweeper: lease TTL expiry ──▶ re-queue + WAL lease_expired
//
// The in-process execution engine (internal/engine) runs its local workers
// through the same Executor interface, so "local" is just the degenerate
// fleet member with zero network in between.
package fleet

import "repro/internal/telemetry"

// The coordinator's HTTP protocol. All endpoints speak JSON:
//
//	POST /fleet/register    RegisterRequest  → RegisterResponse
//	POST /fleet/lease       LeaseRequest     → LeaseResponse
//	POST /fleet/heartbeat   HeartbeatRequest → HeartbeatResponse
//	POST /fleet/complete    CompleteRequest  → CompleteResponse   (may embed a lease exchange)
//	POST /fleet/leave       LeaveRequest     → LeaveResponse
//	GET  /fleet/job?id=ID                    → JobInfo
//
// Errors reuse the server's {"error": ..., "code": ...} envelope; code
// "lease_conflict" (409) marks settle races a retrying worker should drop,
// "unknown_worker" (409) tells an agent to re-register (the coordinator
// restarted or evicted it), and "bad_request" (400) marks malformed
// requests (e.g. a non-positive LeaseRequest.Max, or an accuracy outside
// [0, 1]) the sender must fix, not retry. A body that does not decode —
// unknown fields included — is a 400 without a code.

// CodeUnknownWorker tags 409 replies for requests naming a worker id the
// registry does not know; agents respond by re-registering.
const CodeUnknownWorker = "unknown_worker"

// CodeBadRequest tags 400 replies for malformed requests — retrying the
// same payload can never succeed.
const CodeBadRequest = "bad_request"

// RegisterRequest announces a worker and its capabilities.
type RegisterRequest struct {
	// Name is the operator-facing worker name (e.g. its hostname); ids are
	// assigned by the coordinator, so names need not be unique.
	Name string `json:"name"`
	// Devices is how many candidates the worker trains concurrently.
	Devices int `json:"devices"`
	// Alpha is the worker's multi-device scaling exponent — capability
	// metadata the coordinator surfaces in the registry.
	Alpha float64 `json:"alpha"`
}

// RegisterResponse assigns the worker id and the protocol cadence.
type RegisterResponse struct {
	WorkerID string `json:"worker_id"`
	// LeaseTTLMS is how long the coordinator waits for a heartbeat before
	// reclaiming the worker's leases.
	LeaseTTLMS float64 `json:"lease_ttl_ms"`
	// HeartbeatMS is the heartbeat period the worker should use.
	HeartbeatMS float64 `json:"heartbeat_ms"`
	// PollMS is the suggested idle poll period for /fleet/lease.
	PollMS float64 `json:"poll_ms"`
	// Seed is the coordinator's simulated-training seed: a SimExecutor
	// built on it reproduces the coordinator's quality surfaces exactly,
	// so results are identical no matter which worker trains a candidate.
	Seed int64 `json:"seed"`
}

// LeaseRequest asks for up to Max new leases. Max must be positive — a
// non-positive value is a protocol error (400, code "bad_request"); the Go
// client defaults it to 1. It travels alone on /fleet/lease (a slot with
// nothing to report: cold start, idle) or inside a CompleteRequest
// (settle-and-lease: the slot that just finished asks for its next run in
// the same round trip). Either way every grant takes the coordinator's pick
// path.
type LeaseRequest struct {
	WorkerID string `json:"worker_id"`
	Max      int    `json:"max"`
}

// WireLease is one leased work item on the wire. The candidate is named,
// not embedded: workers rebuild the full candidate surface from the job's
// logged program (JobInfo), exactly like crash recovery does.
type WireLease struct {
	LeaseID   int    `json:"lease_id"`
	JobID     string `json:"job_id"`
	Candidate string `json:"candidate"`
	// Trace is the lease's trace ID, minted by the scheduler at pick time.
	// Workers carry it into their structured logs and onto the
	// X-Easeml-Trace header of the completion report, so one lease is
	// traceable end to end across processes.
	Trace string `json:"trace,omitempty"`
	// Span is the lease's root span ID, so the worker's run span parents
	// into the coordinator's span tree for the lease.
	Span string `json:"span,omitempty"`
}

// LeaseResponse returns the granted leases (possibly none).
type LeaseResponse struct {
	Leases []WireLease `json:"leases"`
}

// HeartbeatRequest refreshes the worker's liveness and the TTL of the
// leases it is still executing.
type HeartbeatRequest struct {
	WorkerID string `json:"worker_id"`
	LeaseIDs []int  `json:"lease_ids,omitempty"`
}

// HeartbeatResponse echoes the subset of LeaseIDs still outstanding; a
// lease missing from KnownLeases was reclaimed (expired) and the worker
// should abort its run — a late result would only bounce off 409.
// Preempted lists leases reclaimed by priority preemption since the last
// heartbeat: the explicit abort signal, so agents can distinguish "your
// run was displaced by guaranteed work" from an expiry and kill the run
// without waiting to notice the missing KnownLeases entry.
type HeartbeatResponse struct {
	KnownLeases []int `json:"known_leases,omitempty"`
	Preempted   []int `json:"preempted,omitempty"`
}

// CompleteRequest reports the outcome of one leased run. A non-empty Error
// means the run failed: the coordinator releases the lease for retry, or
// abandons the candidate at the scheduler's retry budget. A successful
// report must carry an Accuracy in [0, 1] and a non-negative Cost; anything
// else is refused with 400 "bad_request" and settles nothing.
type CompleteRequest struct {
	WorkerID string  `json:"worker_id"`
	LeaseID  int     `json:"lease_id"`
	Accuracy float64 `json:"accuracy"`
	Cost     float64 `json:"cost"`
	Error    string  `json:"error,omitempty"`
	// Spans ships the worker-side spans of the lease's trace (the run
	// span, at minimum) back to the coordinator, which imports them into
	// its flight recorder so GET /admin/traces/{id} serves the whole
	// cross-process tree from one place.
	Spans []telemetry.SpanData `json:"spans,omitempty"`
	// Lease, when set, makes this a settle-and-lease: once the report has
	// settled, the coordinator serves the embedded request (under this
	// request's WorkerID) exactly as /fleet/lease would, so the pick sees
	// the observation that just landed. A report that does not settle (409)
	// grants nothing.
	Lease *LeaseRequest `json:"lease,omitempty"`
}

// CompleteResponse reports how the lease settled, plus the answer to an
// embedded lease request.
type CompleteResponse struct {
	// Settled is "completed", "released" (failed, will retry) or
	// "abandoned" (failed at the retry budget, candidate retired).
	Settled string `json:"settled"`
	// Lease answers the request's embedded Lease. Nil when none was sent,
	// or when the lease step failed after the settle went through — the
	// worker then polls /fleet/lease like any idle slot.
	Lease *LeaseResponse `json:"lease,omitempty"`
}

// LeaveRequest deregisters a worker gracefully: its outstanding leases are
// released (re-queued) immediately instead of waiting out the TTL.
type LeaveRequest struct {
	WorkerID string `json:"worker_id"`
}

// LeaveResponse reports how many leases the departure re-queued.
type LeaveResponse struct {
	Released int `json:"released"`
}

// JobInfo is the GET /fleet/job reply: the job's logged program, from
// which a worker regenerates the exact candidate list (same derivation as
// crash recovery), plus the expected candidate names as a cross-check.
type JobInfo struct {
	ID         string   `json:"id"`
	Name       string   `json:"name"`
	Program    string   `json:"program"`
	Candidates []string `json:"candidates"`
}
