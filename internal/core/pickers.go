package core

import (
	"math"
	"math/rand"
	"slices"
	"sort"

	"repro/internal/dataset"
)

// UserPicker decides which tenant to serve next (the "user-picking phase" of
// Algorithm 2). Pick receives the current tenant set and returns the index
// of an active (non-exhausted) tenant; it must not return an exhausted one.
// Operating on the tenant slice (rather than a Simulation) lets the same
// pickers drive both the experiment replay loop and the live service in
// internal/server.
type UserPicker interface {
	Name() string
	Pick(tenants []*Tenant) int
}

// SelectionOracle answers greedy user-picking queries from pre-computed,
// incrementally-maintained state — the seam through which the server's
// cross-job selection index (internal/server) plugs into the paper's
// pickers without the pickers knowing about dirty epochs or score heaps.
//
// Implementations must reproduce GreedyPicker's semantics exactly:
// GreedyChoice returns the index GreedyPicker.Pick would return for the
// same tenant slice, and GreedyCandidates the sorted candidate set Vt its
// candidateSet would compute. The selection-index equivalence tests in
// internal/server enforce this bit-for-bit.
type SelectionOracle interface {
	// GreedyChoice returns the greedy pick (max gap over the candidate
	// set), or -1 when no tenant is active.
	GreedyChoice(tenants []*Tenant) int
	// GreedyCandidates returns the candidate set Vt as sorted tenant
	// indices. It is only consulted when freeze detection needs a
	// signature — once per observed round, not per pick.
	GreedyCandidates(tenants []*Tenant) []int
}

// FreezeOracle is the optional SelectionOracle extension that also keeps
// HYBRID's freeze-detection inputs over the same tenant slice, so a pick
// does not pass over every tenant for them. Both must equal HYBRID's own
// passes bit for bit.
type FreezeOracle interface {
	SelectionOracle
	// TriedTotal returns the tenants' NumTried summed.
	TriedTotal() int
	// BestObservedSum returns the tenants' BestObserved summed from 0 in
	// index order.
	BestObservedSum() float64
}

// OraclePicker is the optional UserPicker extension for pickers whose
// greedy phase can be served by a SelectionOracle. PickWithOracle must
// behave exactly like Pick, with the oracle standing in for the linear
// greedy scan.
type OraclePicker interface {
	UserPicker
	PickWithOracle(tenants []*Tenant, o SelectionOracle) int
}

// PickUndoer is implemented by user pickers whose picks advance state of
// their own — a round-robin cursor, weighted-round-robin credit, HYBRID's
// freeze window. UndoPick takes back what the most recent Pick or
// PickWithOracle changed (one level), for a caller that has to discard the
// pick: the server does when it finds the chosen tenant's bandit ahead of
// the copy the pick was made on.
type PickUndoer interface {
	UndoPick()
}

// Active returns the indices of tenants that still have untried, unleased
// models.
func Active(tenants []*Tenant) []int {
	var active []int
	for i, t := range tenants {
		if t.Active() {
			active = append(active, i)
		}
	}
	return active
}

// ModelPicker decides which model to run for the chosen tenant (the
// "model-picking phase"). It returns the arm and the upper-confidence-bound
// value the arm was selected at (used by the σ̃ recurrence).
type ModelPicker interface {
	Name() string
	Pick(t *Tenant) (arm int, ucb float64)
}

// ---------------------------------------------------------------------------
// Model pickers.

// UCBModelPicker runs one step of the tenant's own (cost-aware) GP-UCB —
// lines 9–12 of Algorithm 2.
type UCBModelPicker struct{}

// Name implements ModelPicker.
func (UCBModelPicker) Name() string { return "gp-ucb" }

// Pick implements ModelPicker.
func (UCBModelPicker) Pick(t *Tenant) (int, float64) { return t.Bandit.SelectArm() }

// FixedOrderModelPicker plays arms in a fixed preference order, skipping
// already-tried arms. It models the heuristics ease.ml's users followed
// before the system existed (§5.2): most-cited-first and most-recent-first.
type FixedOrderModelPicker struct {
	Label string
	Order []int // arm indices in decreasing preference
}

// Name implements ModelPicker.
func (p *FixedOrderModelPicker) Name() string { return p.Label }

// Pick implements ModelPicker.
func (p *FixedOrderModelPicker) Pick(t *Tenant) (int, float64) {
	for _, arm := range p.Order {
		if !t.Bandit.Tried(arm) {
			// Report the bandit's UCB for the arm so the σ̃ recurrence stays
			// well defined even under heuristic model picking.
			return arm, t.Bandit.UCB(arm)
		}
	}
	return -1, math.Inf(-1)
}

// MostCitedPicker orders models by citation count, descending — "most cited
// network first" (§5.2). Ties break by index for determinism.
func MostCitedPicker(models []dataset.ModelInfo) *FixedOrderModelPicker {
	order := argsortDesc(len(models), func(a, b int) bool {
		if models[a].Citations != models[b].Citations {
			return models[a].Citations > models[b].Citations
		}
		return a < b
	})
	return &FixedOrderModelPicker{Label: "most-cited", Order: order}
}

// MostRecentPicker orders models by publication year, descending — "most
// recently published network first" (§5.2).
func MostRecentPicker(models []dataset.ModelInfo) *FixedOrderModelPicker {
	order := argsortDesc(len(models), func(a, b int) bool {
		if models[a].Year != models[b].Year {
			return models[a].Year > models[b].Year
		}
		return a < b
	})
	return &FixedOrderModelPicker{Label: "most-recent", Order: order}
}

func argsortDesc(n int, less func(a, b int) bool) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return less(idx[a], idx[b]) })
	return idx
}

// ---------------------------------------------------------------------------
// User pickers.

// FCFSPicker serves the lowest-indexed active tenant until it is exhausted —
// the "first come first served" strawman of §4.1 whose cumulative regret
// grows linearly in T.
type FCFSPicker struct{}

// Name implements UserPicker.
func (FCFSPicker) Name() string { return "fcfs" }

// Pick implements UserPicker.
func (FCFSPicker) Pick(tenants []*Tenant) int {
	for i, t := range tenants {
		if t.Active() {
			return i
		}
	}
	return -1
}

// RoundRobinPicker serves active tenants cyclically — §4.2's ROUNDROBIN with
// the Theorem 2 regret bound.
type RoundRobinPicker struct {
	next int
	undo int // next before the most recent pick
}

// Name implements UserPicker.
func (*RoundRobinPicker) Name() string { return "round-robin" }

// Pick implements UserPicker.
func (p *RoundRobinPicker) Pick(tenants []*Tenant) int {
	p.undo = p.next
	n := len(tenants)
	for off := 0; off < n; off++ {
		i := (p.next + off) % n
		if tenants[i].Active() {
			p.next = (i + 1) % n
			return i
		}
	}
	return -1
}

// UndoPick implements PickUndoer.
func (p *RoundRobinPicker) UndoPick() { p.next = p.undo }

// RandomPicker serves a uniformly random active tenant — the §5.3 RANDOM
// baseline ("uniform sampling with replacement" versus round-robin's
// without).
type RandomPicker struct {
	Rng *rand.Rand
}

// Name implements UserPicker.
func (*RandomPicker) Name() string { return "random" }

// Pick implements UserPicker.
func (p *RandomPicker) Pick(tenants []*Tenant) int {
	active := Active(tenants)
	if len(active) == 0 {
		return -1
	}
	return active[p.Rng.Intn(len(active))]
}

// GreedyPicker implements the user-picking phase of Algorithm 2 (lines 6–8):
// compute the empirical variances σ̃, form the candidate set
// Vt = {i : σ̃_i ≥ mean(σ̃)}, and select from Vt with ease.ml's max-gap rule
// (largest UCB minus best accuracy so far).
type GreedyPicker struct {
	// lastCandidates records the candidate set of the most recent pick for
	// freeze detection by HybridPicker; it is a sorted list of tenant ids.
	lastCandidates []int
}

// Name implements UserPicker.
func (*GreedyPicker) Name() string { return "greedy" }

// GreedyDecision is the canonical linear implementation of the greedy
// user-picking rule: it computes the candidate set Vt (unserved-active
// tenants when any exist, else the active tenants with σ̃ at or above the
// active mean, falling back to all active on the numerical corner) and the
// max-gap choice over it, with ties broken toward the lowest index. gap(i)
// supplies tenant i's Gap — a hook so selection indexes can serve cached
// scores — and candidates comes back in ascending index order.
//
// Every SelectionOracle must match this function bit-for-bit; GreedyPicker
// itself is built on it.
func GreedyDecision(tenants []*Tenant, gap func(i int) float64) (choice int, candidates []int) {
	active := Active(tenants)
	if len(active) == 0 {
		return -1, nil
	}
	candidates = greedyCandidateSet(tenants, active)
	choice = -1
	bestGap := math.Inf(-1)
	for _, i := range candidates {
		if g := gap(i); g > bestGap {
			bestGap = g
			choice = i
		}
	}
	return choice, candidates
}

// greedyCandidateSet computes Vt over the active tenants (ascending
// index order). Unserved tenants have σ̃ = +Inf and dominate: they are
// served first, reproducing Algorithm 2's initialization sweep.
func greedyCandidateSet(tenants []*Tenant, active []int) []int {
	var sum float64
	unserved := active[:0:0]
	for _, i := range active {
		st := tenants[i].SigmaTilde()
		if math.IsInf(st, 1) {
			unserved = append(unserved, i)
			continue
		}
		sum += st
	}
	if len(unserved) > 0 {
		return unserved
	}
	avg := sum / float64(len(active))
	var candidates []int
	for _, i := range active {
		if tenants[i].SigmaTilde() >= avg {
			candidates = append(candidates, i)
		}
	}
	if len(candidates) == 0 { // numerical corner: all equal to avg-ε
		candidates = active
	}
	return candidates
}

// Pick implements UserPicker.
func (p *GreedyPicker) Pick(tenants []*Tenant) int {
	choice, candidates := GreedyDecision(tenants, func(i int) float64 { return tenants[i].Gap() })
	p.lastCandidates = append(p.lastCandidates[:0], candidates...)
	sort.Ints(p.lastCandidates)
	return choice
}

// PickWithOracle implements OraclePicker: the oracle stands in for the
// linear candidate-set scan. The lastCandidates freeze signature is not
// maintained on this path — it is only consumed by HybridPicker, which
// queries the oracle directly.
func (p *GreedyPicker) PickWithOracle(tenants []*Tenant, o SelectionOracle) int {
	return o.GreedyChoice(tenants)
}

// HybridPicker is ease.ml's default scheduler (§4.4): GREEDY with freeze
// detection. When the candidate set stays identical and the total best
// quality across tenants does not improve for S consecutive picks, the
// picker concludes GREEDY has entered its freezing stage and switches to
// round-robin for the remainder of the run.
type HybridPicker struct {
	// S is the freeze-detection window; the paper uses s = 10.
	S int

	greedy GreedyPicker

	hybridState
	undo hybridState // the state before the most recent pick (UndoPick)
	// cands double-buffers the previous round's candidate set: a round
	// writes the buffer prev does not name and then flips prev, so undoing
	// the flip finds the older set untouched.
	cands [2][]int
}

// hybridState is what one pick can change: the round-robin cursor and the
// freeze-detection window.
type hybridState struct {
	rr          RoundRobinPicker
	frozen      bool
	stableCount int
	prev        int // which of cands holds the previous round's candidate set
	prevTotal   float64
	prevObs     int
	havePrev    bool
}

// NewHybridPicker returns a HybridPicker with the paper's s = 10 window.
func NewHybridPicker() *HybridPicker { return &HybridPicker{S: 10} }

// Name implements UserPicker.
func (*HybridPicker) Name() string { return "hybrid" }

// UndoPick implements PickUndoer.
func (p *HybridPicker) UndoPick() { p.hybridState = p.undo }

// Pick implements UserPicker.
func (p *HybridPicker) Pick(tenants []*Tenant) int {
	p.undo = p.hybridState
	if p.frozen {
		return p.rr.Pick(tenants)
	}
	choice := p.greedy.Pick(tenants)
	return p.finishPick(tenants, choice, nil)
}

// PickWithOracle implements OraclePicker: identical to Pick, with the
// greedy phase (choice and candidate-set signature) served by the oracle.
func (p *HybridPicker) PickWithOracle(tenants []*Tenant, o SelectionOracle) int {
	p.undo = p.hybridState
	if p.frozen {
		return p.rr.Pick(tenants)
	}
	choice := o.GreedyChoice(tenants)
	return p.finishPick(tenants, choice, o)
}

// finishPick runs the freeze-detection bookkeeping on a greedy choice made
// by the oracle (nil: by p.greedy). The candidate set is consulted lazily —
// only when a new observation has landed since the previous pick — so
// oracle-backed picks between observations never pay for it, and it is
// copied, so the oracle may answer from scratch space. A FreezeOracle
// serves the tried total and the best-observed sum too.
func (p *HybridPicker) finishPick(tenants []*Tenant, choice int, o SelectionOracle) int {
	if choice < 0 {
		return choice
	}
	// Freeze detection counts scheduling rounds — pick followed by an
	// observed result. The execution engine leases several arms between
	// results, so picks that arrive before any new observation must not
	// advance (or reset) the stability window, or a single lease batch
	// would latch GREEDY into round-robin before training even starts.
	fo, _ := o.(FreezeOracle)
	totalObs := 0
	if fo != nil {
		totalObs = fo.TriedTotal()
	} else {
		for _, t := range tenants {
			totalObs += t.NumTried()
		}
	}
	if p.havePrev && totalObs == p.prevObs {
		return choice
	}
	candidates := p.greedy.lastCandidates
	if o != nil {
		candidates = o.GreedyCandidates(tenants)
	}
	cur := 1 - p.prev
	p.cands[cur] = append(p.cands[cur][:0], candidates...)
	total := 0.0
	if fo != nil {
		total = fo.BestObservedSum()
	} else {
		for _, t := range tenants {
			total += t.BestObserved()
		}
	}
	if p.havePrev && slices.Equal(p.cands[cur], p.cands[p.prev]) && total <= p.prevTotal+1e-12 {
		p.stableCount++
	} else {
		p.stableCount = 0
	}
	p.prev = cur
	p.prevTotal = total
	p.prevObs = totalObs
	p.havePrev = true
	sWindow := p.S
	if sWindow <= 0 {
		sWindow = 10
	}
	if p.stableCount >= sWindow {
		p.frozen = true
		return p.rr.Pick(tenants)
	}
	return choice
}
