package server

import (
	"sync"
	"time"

	"repro/internal/admission"
	"repro/internal/telemetry"
)

// Decision provenance: every scheduling choice the paper's multi-tenant
// scheduler makes — which tenant's arm to lease, who is admitted, who is
// preempted, whose budget drained their jobs — emits a compact
// DecisionRecord into a bounded in-memory ring, queryable via
// GET /admin/decisions and linked (where one exists) to the lease's trace
// ID, so "why did the scheduler do that" is answerable per decision
// instead of by grepping aggregate metrics.

// Decision kinds.
const (
	DecisionPick            = "pick"
	DecisionAdmission       = "admission"
	DecisionPreemption      = "preemption"
	DecisionBudgetExhausted = "budget_exhausted"
)

// ArmScore is one row of a pick decision's top-K UCB table: an arm that
// competed and the upper confidence bound it held at decision time.
type ArmScore struct {
	Arm int     `json:"arm"`
	UCB float64 `json:"ucb"`
}

// DecisionRecord is one scheduler decision, compact enough to emit on the
// pick hot path. Fields beyond Seq/Kind/Time are kind-specific.
type DecisionRecord struct {
	Seq    uint64 `json:"seq"`
	Kind   string `json:"kind"`
	TimeNS int64  `json:"time_unix_nano"`
	// Trace links the decision to a lease's span tree ("" when the
	// decision is not about one lease, e.g. admission verdicts).
	Trace  string `json:"trace,omitempty"`
	Tenant string `json:"tenant,omitempty"`
	Job    string `json:"job,omitempty"`

	// Pick: the winning arm, its (hallucinated) UCB, the top-K real-
	// posterior UCBs it competed against, and the candidate-set sizes.
	Candidate  string     `json:"candidate,omitempty"`
	Arm        int        `json:"arm"`
	UCB        float64    `json:"ucb,omitempty"`
	TopUCB     []ArmScore `json:"top_ucb,omitempty"`
	Candidates int        `json:"candidate_set,omitempty"` // selectable arms in the winning job
	Jobs       int        `json:"jobs,omitempty"`          // jobs in the pick's snapshot

	// Quota / budget state at decision time.
	Class        string             `json:"class,omitempty"`
	ClassWeights map[string]float64 `json:"class_weights,omitempty"`
	BudgetLimit  float64            `json:"budget_limit,omitempty"`
	BudgetUsed   float64            `json:"budget_used,omitempty"`

	// Outcome ("granted"/"rejected" for admission, "preempted", …) and a
	// free-form detail (rejection reason, demanding job, …).
	Outcome string `json:"outcome,omitempty"`
	Detail  string `json:"detail,omitempty"`
}

// decisionBufferCap bounds the decision ring. Decisions are ~two orders
// of magnitude rarer than spans (one per lease, not one per stage), so a
// fixed cap needs no flag.
const decisionBufferCap = 1024

var decisionsEmitted = telemetry.Default().CounterVec("easeml_decisions_total",
	"Scheduler decision records emitted, by kind.", "kind")

// decisionRing is a bounded mutex-guarded ring of decision records. The
// zero value is ready to use (the buffer is allocated on first add), so
// Scheduler embeds it without constructor changes.
type decisionRing struct {
	mu   sync.Mutex
	buf  []*DecisionRecord
	head uint64 // records ever added; buf[(head-1)%cap] is newest
	seq  uint64
}

func (r *decisionRing) add(d *DecisionRecord) {
	r.mu.Lock()
	if r.buf == nil {
		r.buf = make([]*DecisionRecord, decisionBufferCap)
	}
	r.seq++
	d.Seq = r.seq
	if d.TimeNS == 0 {
		d.TimeNS = time.Now().UnixNano()
	}
	r.buf[r.head%uint64(len(r.buf))] = d
	r.head++
	r.mu.Unlock()
	decisionsEmitted.With(d.Kind).Inc()
}

// snapshot returns the live records newest-first.
func (r *decisionRing) snapshot() []*DecisionRecord {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := r.head
	if n > uint64(len(r.buf)) {
		n = uint64(len(r.buf))
	}
	out := make([]*DecisionRecord, 0, n)
	for i := uint64(1); i <= n; i++ {
		out = append(out, r.buf[(r.head-i)%uint64(len(r.buf))])
	}
	return out
}

// DecisionFilter narrows a Decisions listing; zero values match everything.
type DecisionFilter struct {
	Job    string
	Tenant string
	Kind   string
	Trace  string
	Limit  int
}

// Decisions lists recorded scheduler decisions newest-first, filtered.
func (sc *Scheduler) Decisions(f DecisionFilter) []DecisionRecord {
	var out []DecisionRecord
	for _, d := range sc.decisions.snapshot() {
		if f.Job != "" && d.Job != f.Job {
			continue
		}
		if f.Tenant != "" && d.Tenant != f.Tenant {
			continue
		}
		if f.Kind != "" && d.Kind != f.Kind {
			continue
		}
		if f.Trace != "" && d.Trace != f.Trace {
			continue
		}
		out = append(out, *d)
		if f.Limit > 0 && len(out) >= f.Limit {
			break
		}
	}
	return out
}

// emitAdmissionDecision records an admission verdict for a tenant's job
// submission. Called from Submit with no scheduler locks held.
func (sc *Scheduler) emitAdmissionDecision(tenant, outcome string, cause error) {
	d := &DecisionRecord{
		Kind:         DecisionAdmission,
		Tenant:       tenant,
		Outcome:      outcome,
		ClassWeights: classWeights,
	}
	if sc.adm != nil {
		d.Class = string(sc.adm.ClassOf(tenant))
		d.BudgetLimit = sc.adm.Budget(tenant)
		d.BudgetUsed = sc.TenantCost(tenant)
	}
	if cause != nil {
		d.Detail = cause.Error()
	}
	sc.decisions.add(d)
}

// classWeights is the static fair-share weight table recorded on pick
// decisions, built once from the admission class constants.
var classWeights = map[string]float64{
	string(admission.ClassGuaranteed): admission.ClassGuaranteed.Weight(),
	string(admission.ClassStandard):   admission.ClassStandard.Weight(),
	string(admission.ClassBestEffort): admission.ClassBestEffort.Weight(),
}

// Span operations of the lease lifecycle. The root "lease" span opens at
// selection and closes at the lease's terminal outcome (completed /
// released / abandoned / expired / preempted / conflict); the pick_* and
// settle children share the exact stage boundaries the PR-6 histograms
// observe, so the span tree and the latency histograms always agree.
var (
	opLease           = telemetry.SpanOp("lease")
	opPickSelect      = telemetry.SpanOp("pick_select")
	opPickLockWait    = telemetry.SpanOp("pick_lock_wait")
	opPickHallucinate = telemetry.SpanOp("pick_hallucinate")
	opSettle          = telemetry.SpanOp("settle")
	opWALAppend       = telemetry.SpanOp("wal_append")
)

// finishLeaseSpan closes a lease's root span with its terminal outcome.
// Safe on leases that predate span instrumentation (recovered fixtures)
// and idempotent across racing terminal paths — only the first End
// records.
func finishLeaseSpan(l *Lease, outcome string, err error) {
	if l == nil || l.span == nil {
		return
	}
	l.span.SetAttr("outcome", outcome)
	l.span.Fail(err)
	l.span.End()
}

// emitPickProvenance records one pick's spans and DecisionRecord. Called
// from leaseArmLocked with coordMu and the job's lock held: it only reads
// the already-extracted decision state and touches leaf mutexes (the
// decision ring, the flight recorder).
//
// topUCB extracts the top-K entries of the job's real-posterior UCB
// surface by partial selection — no sort, no extra allocation beyond the
// K-row table — so the record stays cheap at bench arm counts.
func (sc *Scheduler) emitPickProvenance(l *Lease, job *Job, surface []float64, leasedBefore, jobsInSnapshot int, selectT0, hallStart time.Time, hallDur time.Duration) {
	root := telemetry.NewSpanAt(l.Trace, "", opLease, selectT0)
	root.SetAttr("job", l.JobID)
	root.SetAttr("tenant", job.Name)
	root.SetAttr("candidate", l.Candidate.Name())
	l.span = root

	now := time.Now()
	sel := telemetry.NewSpanAt(l.Trace, root.ID(), opPickSelect, selectT0)
	sel.EndAt(now)
	if hallDur > 0 {
		h := telemetry.NewSpanAt(l.Trace, root.ID(), opPickHallucinate, hallStart)
		h.EndAt(hallStart.Add(hallDur))
	}

	const topK = 3
	var top [topK]ArmScore
	nTop, selectable := 0, 0
	for arm, ucb := range surface {
		if ucb != ucb { // NaN: tried or retired
			continue
		}
		selectable++
		if nTop < topK {
			top[nTop] = ArmScore{Arm: arm, UCB: ucb}
			nTop++
			continue
		}
		low := 0
		for i := 1; i < topK; i++ {
			if top[i].UCB < top[low].UCB {
				low = i
			}
		}
		if ucb > top[low].UCB {
			top[low] = ArmScore{Arm: arm, UCB: ucb}
		}
	}

	d := &DecisionRecord{
		Kind:         DecisionPick,
		TimeNS:       now.UnixNano(),
		Trace:        l.Trace,
		Tenant:       job.Name,
		Job:          l.JobID,
		Candidate:    l.Candidate.Name(),
		Arm:          l.Arm,
		UCB:          l.UCB,
		TopUCB:       append([]ArmScore(nil), top[:nTop]...),
		Candidates:   selectable - leasedBefore,
		Jobs:         jobsInSnapshot,
		Class:        string(job.Class),
		ClassWeights: classWeights,
		BudgetUsed:   job.tenant.Bandit.CumulativeCost(),
	}
	if sc.adm != nil {
		d.BudgetLimit = sc.adm.Budget(job.Name)
	}
	sc.decisions.add(d)
}
