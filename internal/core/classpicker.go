package core

import "fmt"

// ClassWeightedPicker puts weighted fair sharing across tenant *classes* on
// top of any UserPicker — the priority layer the server's admission
// subsystem adds to the paper's user-picking policies. Tenants carry a
// Class label and a Weight (see Tenant); the wrapper decides which class is
// served next by smooth weighted round-robin over the classes that
// currently have active tenants, then lets that class's own inner picker
// (HYBRID by default) choose among the class's tenants.
//
// Every class has its own inner picker, run over the class's own tenant
// sub-slice, so a stateful picker's indices, round-robin cursor,
// observation count and best-quality total are class-local: HYBRID's freeze
// detection (§4.4) watches one class's candidate set, and a class that
// freezes does not freeze its neighbours. Tenants never change class and
// only ever join a class at its end, so class-local indices are stable.
//
// Smooth weighted round-robin is starvation-free by construction: every
// class with active tenants accumulates credit every round, so a class of
// weight w is served at least once every ⌈W/w⌉ picks (W = total active
// weight) no matter how large the other classes' weights are — best-effort
// tenants are throttled, never starved.
type ClassWeightedPicker struct {
	newInner func() UserPicker
	name     string

	// classes holds each class's picker and smooth-WRR credit, in the
	// order the classes were first seen active: a handful, so a scan finds
	// one faster than a hash would. Classes keep their credit while
	// inactive (it is bounded by one round's worth), so a briefly-exhausted
	// class rejoins where it left off.
	classes []classState

	shares []ClassShare // scratch: the active classes of one pick
	scan   classScan    // scratch: the linear partition of one pick

	// What the most recent pick changed, for UndoPick: the credits it
	// moved (Weight holds the credit before) and the inner picker it ran.
	undoCredit []ClassShare
	undoInner  UserPicker
}

// classState is one class's picker and credit.
type classState struct {
	key    string
	inner  UserPicker
	credit float64
}

// class returns key's state, adding it with a fresh picker on first use.
// The pointer is valid until the next call.
func (p *ClassWeightedPicker) class(key string) *classState {
	for i := range p.classes {
		if p.classes[i].key == key {
			return &p.classes[i]
		}
	}
	p.classes = append(p.classes, classState{key: key, inner: p.newInner()})
	return &p.classes[len(p.classes)-1]
}

// ClassShare is a class with active tenants and the weight it shares the
// pool by.
type ClassShare struct {
	Class  string
	Weight float64
}

// ClassOracle serves ClassWeightedPicker from a tenant set that is kept
// partitioned by class, so a pick costs O(classes) plus the inner pick over
// one class instead of passes over every tenant. An implementation must
// answer exactly what a scan of the tenant slice in index order finds;
// classScan is that scan.
type ClassOracle interface {
	// ActiveClasses appends to dst the classes that have an active tenant,
	// in order of their lowest-indexed active member, each with the largest
	// weight among its active members (a class's weight is the maximum of
	// its members', so one mis-tagged tenant cannot zero a class).
	ActiveClasses(dst []ClassShare) []ClassShare
	// ClassMembers returns a class's tenants in index order, their
	// positions in the full tenant slice, and the oracle that answers
	// greedy queries over exactly that sub-slice (nil: none, the inner
	// picker scans it).
	ClassMembers(class string) (members []*Tenant, index []int, o SelectionOracle)
}

// NewClassWeightedPicker builds a class-weighted picker whose classes each
// pick with their own newInner() (nil defaults to HYBRID).
func NewClassWeightedPicker(newInner func() UserPicker) *ClassWeightedPicker {
	if newInner == nil {
		newInner = func() UserPicker { return NewHybridPicker() }
	}
	return &ClassWeightedPicker{
		newInner: newInner,
		name:     fmt.Sprintf("class-weighted(%s)", newInner().Name()),
	}
}

// Name implements UserPicker.
func (p *ClassWeightedPicker) Name() string { return p.name }

// classKey normalizes a tenant's class label ("" reads as "standard").
func classKey(t *Tenant) string {
	if t.Class == "" {
		return "standard"
	}
	return t.Class
}

// classWeight returns a tenant's effective weight (0 reads as 1).
func classWeight(t *Tenant) float64 {
	if t.Weight > 0 {
		return t.Weight
	}
	return 1
}

// Pick implements UserPicker: choose a class by smooth weighted
// round-robin over classes with active tenants, then let that class's
// picker choose among the class's tenants.
func (p *ClassWeightedPicker) Pick(tenants []*Tenant) int {
	p.scan.partition(tenants)
	return p.PickClasses(&p.scan)
}

// PickClasses is Pick over a tenant set the caller keeps partitioned by
// class: the classes supply the partition and each class's greedy oracle,
// and the returned index is a position in the full tenant slice they
// partition.
func (p *ClassWeightedPicker) PickClasses(classes ClassOracle) int {
	p.undoCredit, p.undoInner = p.undoCredit[:0], nil
	p.shares = classes.ActiveClasses(p.shares[:0])
	if len(p.shares) == 0 {
		return -1
	}
	// With a single active class (always, in the no-admission deployment)
	// the wrapper is transparent: no credit bookkeeping.
	chosen := p.shares[0].Class
	if len(p.shares) > 1 {
		var total, best float64
		for i, s := range p.shares {
			c := p.class(s.Class)
			p.undoCredit = append(p.undoCredit, ClassShare{Class: s.Class, Weight: c.credit})
			total += s.Weight
			c.credit += s.Weight
			if i == 0 || c.credit > best {
				chosen, best = s.Class, c.credit
			}
		}
		p.class(chosen).credit -= total
	}

	members, index, o := classes.ClassMembers(chosen)
	inner := p.class(chosen).inner
	p.undoInner = inner
	local := -1
	if op, ok := inner.(OraclePicker); ok && o != nil {
		local = op.PickWithOracle(members, o)
	} else {
		local = inner.Pick(members)
	}
	if local < 0 {
		// Defensive: the chosen class had an active tenant, but a faulty
		// inner picker may still decline; fall back to the class's first
		// active tenant rather than stall scheduling.
		for i, t := range members {
			if t.Active() {
				return index[i]
			}
		}
		return -1
	}
	return index[local]
}

// UndoPick implements PickUndoer: the credits the last pick moved go back,
// and so does the inner picker it ran.
func (p *ClassWeightedPicker) UndoPick() {
	for _, c := range p.undoCredit {
		p.class(c.Class).credit = c.Weight
	}
	p.undoCredit = p.undoCredit[:0]
	if u, ok := p.undoInner.(PickUndoer); ok {
		u.UndoPick()
	}
	p.undoInner = nil
}

// classScan is the linear ClassOracle: one pass over the tenant slice in
// index order. It is what Pick runs on, and the reference every faster
// ClassOracle must agree with.
type classScan struct {
	classes []scannedClass // first-seen order over all tenants
	byKey   map[string]int
	active  []int // classes with an active member, in order of discovery
}

type scannedClass struct {
	key     string
	members []*Tenant
	index   []int
	weight  float64 // largest weight among the active members; 0: none active
}

// partition rescans tenants, reusing the previous pick's buffers.
func (s *classScan) partition(tenants []*Tenant) {
	if s.byKey == nil {
		s.byKey = make(map[string]int)
	}
	for i := range s.classes {
		c := &s.classes[i]
		c.members, c.index, c.weight = c.members[:0], c.index[:0], 0
	}
	s.active = s.active[:0]
	for i, t := range tenants {
		key := classKey(t)
		ci, ok := s.byKey[key]
		if !ok {
			ci = len(s.classes)
			s.byKey[key] = ci
			s.classes = append(s.classes, scannedClass{key: key})
		}
		c := &s.classes[ci]
		c.members = append(c.members, t)
		c.index = append(c.index, i)
		if !t.Active() {
			continue
		}
		if c.weight == 0 {
			s.active = append(s.active, ci)
		}
		if w := classWeight(t); w > c.weight {
			c.weight = w
		}
	}
}

// ActiveClasses implements ClassOracle.
func (s *classScan) ActiveClasses(dst []ClassShare) []ClassShare {
	for _, ci := range s.active {
		dst = append(dst, ClassShare{Class: s.classes[ci].key, Weight: s.classes[ci].weight})
	}
	return dst
}

// ClassMembers implements ClassOracle; the scan has no greedy oracle.
func (s *classScan) ClassMembers(class string) ([]*Tenant, []int, SelectionOracle) {
	c := &s.classes[s.byKey[class]]
	return c.members, c.index, nil
}
