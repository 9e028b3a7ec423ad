package telemetry

import (
	"sync"
	"time"
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

// DecisionFilter narrows a decision listing; zero values match everything.
type DecisionFilter struct {
	Job    string
	Tenant string
	Kind   string
	Trace  string
	Limit  int
}

func (f *DecisionFilter) match(d *DecisionRecord) bool {
	return (f.Job == "" || d.Job == f.Job) && (f.Tenant == "" || d.Tenant == f.Tenant) &&
		(f.Kind == "" || d.Kind == f.Kind) && (f.Trace == "" || d.Trace == f.Trace)
}

// decisionBufferCap bounds a decision ring. Decisions are ~two orders of
// magnitude rarer than spans (one per lease, not one per stage), so a
// fixed cap needs no flag.
const decisionBufferCap = 1024

// InlineTopUCB is how many TopUCB rows a decision ring slot holds in place:
// the size of a pick decision's table.
const InlineTopUCB = 3

var decisionsEmitted = Default().CounterVec("easeml_decisions_total",
	"Scheduler decision records emitted, by kind.", "kind")

type decisionSlot struct {
	rec DecisionRecord
	top [InlineTopUCB]ArmScore // backs rec.TopUCB
}

type kindCounter struct {
	kind string
	c    *Counter
}

// DecisionRing is a bounded ring of decision records held by value, so an
// Add allocates nothing. The zero value is ready to use: the slots are
// allocated on the first Add.
type DecisionRing struct {
	mu    sync.Mutex
	buf   []decisionSlot
	head  uint64        // records ever added: the newest's Seq
	kinds []kindCounter // easeml_decisions_total's child per kind seen
}

// Add stores a copy of d, stamped with the next Seq and, when d has no
// time, the current one. Its TopUCB rows are top, or d.TopUCB when top is
// empty; up to InlineTopUCB of them live in the slot itself. The pick path
// passes its rows as top from an array of its own, which keeps them off
// the heap.
func (r *DecisionRing) Add(d *DecisionRecord, top ...ArmScore) {
	if len(top) == 0 {
		top = d.TopUCB
	}
	r.mu.Lock()
	if r.buf == nil {
		r.buf = make([]decisionSlot, decisionBufferCap)
	}
	r.head++
	s := &r.buf[(r.head-1)%uint64(len(r.buf))]
	s.rec = *d
	s.rec.Seq = r.head
	if s.rec.TimeNS == 0 {
		s.rec.TimeNS = time.Now().UnixNano()
	}
	if len(top) <= InlineTopUCB {
		s.rec.TopUCB = s.top[:copy(s.top[:], top)]
	} else {
		s.rec.TopUCB = append([]ArmScore(nil), top...)
	}
	c := r.counter(d.Kind)
	r.mu.Unlock()
	c.Inc()
}

// counter returns kind's child of easeml_decisions_total, resolved once
// per kind. Callers hold r.mu.
func (r *DecisionRing) counter(kind string) *Counter {
	for _, k := range r.kinds {
		if k.kind == kind {
			return k.c
		}
	}
	c := decisionsEmitted.With(kind)
	r.kinds = append(r.kinds, kindCounter{kind, c})
	return c
}

// List returns the records f matches, newest first. Each is a copy that
// owns its TopUCB rows, so a later Add cannot change it (ClassWeights is a
// shared table no one writes).
func (r *DecisionRing) List(f DecisionFilter) []DecisionRecord {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []DecisionRecord
	for i := uint64(1); i <= min(r.head, uint64(len(r.buf))); i++ {
		d := &r.buf[(r.head-i)%uint64(len(r.buf))].rec
		if !f.match(d) {
			continue
		}
		c := *d
		c.TopUCB = append([]ArmScore(nil), d.TopUCB...)
		out = append(out, c)
		if f.Limit > 0 && len(out) >= f.Limit {
			break
		}
	}
	return out
}
