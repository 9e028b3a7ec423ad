package core

import (
	"math"

	"repro/internal/bandit"
)

// Tenant is the per-user scheduling state: the user's GP-UCB bandit plus the
// empirical-confidence-bound recurrence that drives GREEDY's user-picking
// phase (Algorithm 2 line 6).
//
// A tenant built by NewTenantView has no bandit: it is a read-only copy of
// the six scalars a user picker reads (Scalars plus the leased count), kept
// current by whoever owns the real tenant. Every method a UserPicker calls
// answers from the copy, so the same pickers run over either kind.
type Tenant struct {
	ID     int
	Name   string
	Bandit *bandit.GPUCB // nil for a view

	// Class is the tenant's admission service class (e.g. "guaranteed",
	// "standard", "best-effort"); empty means standard. It groups tenants
	// for ClassWeightedPicker's weighted fair sharing and drives the
	// server's preemption rules.
	Class string
	// Weight is the tenant's fair-sharing weight within the class-weighted
	// picker (0 is treated as 1). All tenants of a class normally share the
	// class's weight.
	Weight float64

	// empBound is the running empirical confidence bound
	// min{B_t(a_t), min_{t'<t}(y_{t'} + σ̃_{t'})}. Because y+σ̃ equals the
	// bound at the time it was formed, the historical minimum collapses to
	// the previous bound value, giving the recurrence
	// empBound ← min(B_current, empBound).
	empBound float64
	// sigmaTilde is σ̃, the latest empirical variance: empBound − y_latest.
	sigmaTilde float64
	served     bool

	lastReward float64 // X_it: reward at the last round this tenant was served

	// leased counts arms currently leased to in-flight work (set by the
	// server scheduler's two-phase API); those arms are untried but not
	// selectable, so Active subtracts them. Always 0 in replay simulations.
	leased int

	// view holds a view tenant's published scalars (Bandit == nil).
	view Scalars
}

// Scalars is everything a user picker reads of a tenant's bandit and σ̃
// recurrence. Tried only ever grows — every observation and every
// retirement advances it — so it orders two Scalars of one tenant in time.
type Scalars struct {
	Arms         int     // arms in total
	Tried        int     // arms observed or retired
	SigmaTilde   float64 // +Inf until the tenant is first served
	Gap          float64
	BestObserved float64
}

// Scalars reads the tenant's current scalars. On a bandit-backed tenant
// this refreshes the posterior behind Gap, so the caller — not a later
// reader of the copy — pays for it.
func (t *Tenant) Scalars() Scalars {
	if t.Bandit == nil {
		return t.view
	}
	return Scalars{
		Arms:         t.Bandit.NumArms(),
		Tried:        t.Bandit.NumTried(),
		SigmaTilde:   t.SigmaTilde(),
		Gap:          t.Gap(),
		BestObserved: t.BestObserved(),
	}
}

// NewTenantView returns a bandit-less tenant that answers from s until the
// next Publish.
func NewTenantView(id int, name string, s Scalars) *Tenant {
	return &Tenant{ID: id, Name: name, view: s}
}

// Publish replaces a view tenant's scalars.
func (t *Tenant) Publish(s Scalars) { t.view = s }

// NewTenant wraps a bandit as a tenant.
func NewTenant(id int, name string, b *bandit.GPUCB) *Tenant {
	return &Tenant{ID: id, Name: name, Bandit: b, empBound: math.Inf(1)}
}

// SetLeased records how many of the tenant's untried arms are currently
// leased out to in-flight work.
func (t *Tenant) SetLeased(n int) { t.leased = n }

// Leased returns the count SetLeased recorded.
func (t *Tenant) Leased() int { return t.leased }

// NumTried returns how many arms are observed or retired.
func (t *Tenant) NumTried() int {
	if t.Bandit == nil {
		return t.view.Tried
	}
	return t.Bandit.NumTried()
}

// Active reports whether the tenant has at least one untried arm that is
// not leased out — i.e. whether a user picker may select it. With no
// leases this is exactly !Bandit.Exhausted().
func (t *Tenant) Active() bool { return t.Open()-t.leased > 0 }

// Open returns how many arms are neither observed nor retired, leased or
// not. It only ever falls, so a tenant that reaches 0 is drained for good.
func (t *Tenant) Open() int {
	if t.Bandit == nil {
		return t.view.Arms - t.view.Tried
	}
	return t.Bandit.NumArms() - t.Bandit.NumTried()
}

// SigmaTilde returns the empirical variance σ̃ of Algorithm 2 line 6.
// Tenants that have never been served return +Inf, which keeps them in every
// candidate set (they are exactly the users Algorithm 2's initialization
// loop serves first).
func (t *Tenant) SigmaTilde() float64 {
	if t.Bandit == nil {
		return t.view.SigmaTilde
	}
	if !t.served {
		return math.Inf(1)
	}
	return t.sigmaTilde
}

// BestObserved returns the best accuracy found so far (0 before any
// observation, matching the "no model yet" user experience).
func (t *Tenant) BestObserved() float64 {
	if t.Bandit == nil {
		return t.view.BestObserved
	}
	_, y, ok := t.Bandit.Best()
	if !ok {
		return 0
	}
	return y
}

// LastReward returns X_it — the reward observed the last time this tenant
// was served, 0 if never served. Multi-tenant regret charges unserved
// rounds against this value.
func (t *Tenant) LastReward() float64 { return t.lastReward }

// Gap returns the user-picking score of ease.ml's GREEDY rule (§4.3,
// "picks the user with the maximum gap between the largest upper confidence
// bound and the best accuracy so far"). Exhausted tenants return −Inf.
func (t *Tenant) Gap() float64 {
	if t.Bandit == nil {
		return t.view.Gap
	}
	if t.Bandit.Exhausted() {
		return math.Inf(-1)
	}
	return t.Bandit.MaxUCB() - t.BestObserved()
}

// RecordObservation folds one served round into the tenant state: the arm
// that was played, the UCB value B it was selected with, and the observed
// reward y. It must be called exactly once per serve, after
// Bandit.Observe.
func (t *Tenant) RecordObservation(ucbAtPick, y float64) {
	bound := ucbAtPick
	if t.empBound < bound {
		bound = t.empBound
	}
	t.empBound = bound
	t.sigmaTilde = bound - y
	t.lastReward = y
	t.served = true
}
