package server

import (
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

// The record, its top-K row and the listing filter are the telemetry
// package's, beside the value ring that holds them.
type (
	ArmScore       = telemetry.ArmScore
	DecisionRecord = telemetry.DecisionRecord
	DecisionFilter = telemetry.DecisionFilter
)

// Decisions lists recorded scheduler decisions newest-first, filtered.
func (sc *Scheduler) Decisions(f DecisionFilter) []DecisionRecord { return sc.decisions.List(f) }

// emitAdmissionDecision records an admission verdict for a tenant's job
// submission. Called from Submit with no scheduler locks held.
func (sc *Scheduler) emitAdmissionDecision(tenant, outcome string, cause error) {
	d := DecisionRecord{
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
	sc.decisions.Add(&d)
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
	opLease      = telemetry.SpanOp("lease")
	opPickSelect = telemetry.SpanOp("pick_select")
	// opPickSpeculative replaces opPickSelect on a SpeculativeGrant.
	//
	// Deprecated: no service path emits it; it goes with SpeculativeGrant.
	opPickSpeculative = telemetry.SpanOp("pick_speculative")
	opPickLockWait    = telemetry.SpanOp("pick_lock_wait")
	opPickHallucinate = telemetry.SpanOp("pick_hallucinate")
	opSettle          = telemetry.SpanOp("settle")
	opWALAppend       = telemetry.SpanOp("wal_append")
)

// finishLeaseSpan closes a lease's root span with its terminal outcome.
// It runs exactly once per lease, because every terminal path (expire,
// release, abandon, complete, preempt) calls it only after winning the
// lease's claim (beginSettle, dropLeaseLocked), and at most one path wins
// each lease. A lease with no trace (a recovered one) records nothing.
func finishLeaseSpan(l *Lease, outcome string, err error) {
	finishLeaseSpanAt(l, outcome, err, time.Now())
}

// finishLeaseSpanAt is finishLeaseSpan, ended at end.
func finishLeaseSpanAt(l *Lease, outcome string, err error, end time.Time) {
	l.span.SetAttr("outcome", outcome)
	l.span.Fail(err)
	l.span.EndAt(end)
}

// grantRecord is what one grant's provenance is built from: the lease, its
// job, and what the pick saw of the index and the clock.
type grantRecord struct {
	l           *Lease
	job         *Job
	speculative bool // the deprecated SpeculativeGrant path
	jobs        int  // entries in the selection index
	leased      int  // the job's arms in flight before this lease
	selectT0    time.Time
	hallStart   time.Time
	hallDur     time.Duration
}

// emitGrantProvenance mints one grant's trace and records its spans and
// DecisionRecord, for both grant paths: the lease root span, its
// selection-stage child (opPickSelect, or opPickSpeculative with
// path=speculative on the root and Detail "speculative" on the record),
// the hallucination stage when there was one, the pick decision and the
// stage histograms. A pick-path record carries the top-K table of the
// job's real-posterior UCB surface, read in place, and the selectable arms
// not yet leased; the speculative path never touches the surface. Called
// with the job's lock held (the surface is then the one the arm was picked
// from), coordMu held or not: it reads only the grant's state and takes
// leaf locks (the decision ring, the flight recorder's slots), and
// allocates nothing for its spans. It returns the clock reading that ends
// the select stage.
func (sc *Scheduler) emitGrantProvenance(r *grantRecord) time.Time {
	l, job := r.l, r.job
	l.Trace = telemetry.NewTraceID()
	leaseTraces.Inc()
	name := l.Candidate.Name() // renders once: both grant paths are hot
	root := &l.span
	*root = telemetry.SpanAt(l.Trace, "", opLease, r.selectT0)
	root.SetAttr("job", l.JobID)
	root.SetAttr("tenant", job.Name)
	root.SetAttr("candidate", name)

	d := DecisionRecord{
		Kind:         DecisionPick,
		Trace:        l.Trace,
		Tenant:       job.Name,
		Job:          l.JobID,
		Candidate:    name,
		Arm:          l.Arm,
		UCB:          l.UCB,
		Jobs:         r.jobs,
		Class:        string(job.Class),
		ClassWeights: classWeights,
		BudgetUsed:   job.tenant.Bandit.CumulativeCost(),
	}
	var top [telemetry.InlineTopUCB]ArmScore
	nTop, stage := 0, opPickSelect
	if r.speculative {
		root.SetAttr("path", "speculative")
		stage, d.Detail = opPickSpeculative, "speculative"
	} else {
		var selectable int
		nTop, selectable = topUCB(&top, job.tenant.Bandit.UCBView())
		d.Candidates = selectable - r.leased
	}

	now := time.Now()
	d.TimeNS = now.UnixNano()
	sel := root.Child(stage, r.selectT0)
	sel.EndAt(now)
	if r.hallDur > 0 {
		h := root.Child(opPickHallucinate, r.hallStart)
		h.EndAt(r.hallStart.Add(r.hallDur))
		pickStageHallucinate.Observe(r.hallDur)
	}
	if sc.adm != nil {
		d.BudgetLimit = sc.adm.Budget(job.Name)
	}
	sc.decisions.Add(&d, top[:nTop]...)
	if !r.speculative {
		pickStageSelect.Observe(now.Sub(r.selectT0))
	}
	l.granted = now
	return now
}

// topUCB fills top with the highest entries of a UCB surface by partial
// selection — no sort, no allocation — and returns how many it filled and
// how many arms are selectable (NaN marks tried or retired arms).
func topUCB(top *[telemetry.InlineTopUCB]ArmScore, surface []float64) (n, selectable int) {
	for arm, ucb := range surface {
		if ucb != ucb { // NaN: tried or retired
			continue
		}
		selectable++
		if n < len(top) {
			top[n] = ArmScore{Arm: arm, UCB: ucb}
			n++
			continue
		}
		low := 0
		for i := 1; i < len(top); i++ {
			if top[i].UCB < top[low].UCB {
				low = i
			}
		}
		if ucb > top[low].UCB {
			top[low] = ArmScore{Arm: arm, UCB: ucb}
		}
	}
	return n, selectable
}
