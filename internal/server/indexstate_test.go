package server

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/admission"
	"repro/internal/cluster"
	"repro/internal/core"
)

// CheckIndexConsistent compares the selection index's incremental state
// with what it is a copy of. At quiescence (no settle between its
// observation and its publish) every view equals its job's live scalars,
// every entry's lease list equals that job's leases' arms in id order,
// every class's active count equals a recount, and every class heap
// satisfies its invariant and holds exactly its members.
func (sc *Scheduler) CheckIndexConsistent() error {
	jobs := sc.jobsSnapshot()
	sc.coordMu.Lock()
	defer sc.coordMu.Unlock()
	ix := &sc.selIdx
	if len(ix.entries) != len(jobs) || len(ix.views) != len(jobs) {
		return fmt.Errorf("index has %d entries and %d views for %d jobs", len(ix.entries), len(ix.views), len(jobs))
	}
	inFlight := sc.inFlightArmsLocked()
	for i, job := range jobs {
		e := &ix.entries[i]
		if e.job != job || job.tenant.ID != i {
			return fmt.Errorf("entry %d is not job %s", i, job.ID)
		}
		job.mu.Lock()
		live := job.tenant.Scalars()
		job.mu.Unlock()
		if got := ix.views[i].Scalars(); got != live {
			return fmt.Errorf("%s: view %+v, live tenant %+v", job.ID, got, live)
		}
		if !slices.Equal(e.leased, inFlight[job.ID]) {
			return fmt.Errorf("%s: lease list %v, lease table %v", job.ID, e.leased, inFlight[job.ID])
		}
		if got := ix.views[i].Leased(); got != len(e.leased) {
			return fmt.Errorf("%s: view reports %d leased, list has %d", job.ID, got, len(e.leased))
		}
		if c := e.class; c.key != string(job.Class) || c.members[e.local] != i || c.views[e.local] != ix.views[i] {
			return fmt.Errorf("%s: not member %d of class %q", job.ID, e.local, c.key)
		}
	}
	members := 0
	for _, c := range ix.classes {
		members += len(c.members)
		if !slices.IsSorted(c.members) || len(c.views) != len(c.members) {
			return fmt.Errorf("class %s: members %v with %d views", c.key, c.members, len(c.views))
		}
		active, tried := 0, 0
		for k, v := range c.views {
			if v.Active() {
				active++
			}
			tried += v.NumTried()
			if k < c.drained && v.Open() != 0 {
				return fmt.Errorf("class %s: member %d has open arms behind the drained cursor %d", c.key, k, c.drained)
			}
			if c.sig[k] != v.SigmaTilde() || c.gap[k] != v.Gap() || c.best[k] != v.BestObserved() || c.act[k] != v.Active() {
				return fmt.Errorf("class %s: member %d's dense scalars (%v %v %v %v) are not its view's", c.key, k, c.sig[k], c.gap[k], c.best[k], c.act[k])
			}
		}
		if active != c.active || tried != c.tried {
			return fmt.Errorf("class %s: active and tried counts %d, %d; recount %d, %d", c.key, c.active, c.tried, active, tried)
		}
		if len(c.heap) != len(c.views) {
			return fmt.Errorf("class %s: heap holds %d of %d members", c.key, len(c.heap), len(c.views))
		}
		for p, k := range c.heap {
			if c.pos[k] != p {
				return fmt.Errorf("class %s: member %d at heap position %d, recorded %d", c.key, k, p, c.pos[k])
			}
			if p > 0 && c.less(k, c.heap[(p-1)/2]) {
				return fmt.Errorf("class %s: heap invariant broken at position %d", c.key, p)
			}
		}
	}
	if members != len(jobs) {
		return fmt.Errorf("classes hold %d members for %d jobs", members, len(jobs))
	}
	return nil
}

func checkIndexConsistent(t testing.TB, sc *Scheduler) {
	t.Helper()
	if err := sc.CheckIndexConsistent(); err != nil {
		t.Fatalf("selection index drifted: %v", err)
	}
}

// within fails the test when f does not return in time — a pick waiting
// for a lock it must not take.
func within(t *testing.T, d time.Duration, what string, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatalf("%s did not return within %v", what, d)
	}
}

// A pick takes coordMu and the chosen job's lock, nothing else: with every
// *other* job's lock held by someone else, Grant still returns. (The next
// pick is learnt from a twin scheduler through the reference picker.)
func TestGrantLocksOnlyTheChosenJob(t *testing.T) {
	for _, withQuotas := range []bool{false, true} {
		sc, twin := equivScheduler(t, 7, withQuotas), equivScheduler(t, 7, withQuotas)
		for step := 0; step < 12; step++ {
			next, err := referenceGrant(twin, 1, 0)
			if err != nil || len(next) != 1 {
				t.Fatalf("twin: %v %v", next, err)
			}
			var held []*Job
			for _, job := range sc.Jobs() {
				if job.ID != next[0].JobID {
					job.mu.Lock()
					held = append(held, job)
				}
			}
			var got []*Lease
			within(t, 5*time.Second, "Grant with every other job locked", func() { got, err = sc.Grant(1, 0) })
			for _, job := range held {
				job.mu.Unlock()
			}
			if err != nil || len(got) != 1 || got[0].JobID != next[0].JobID || got[0].Arm != next[0].Arm {
				t.Fatalf("step %d: granted %v (%v), reference %s/%d", step, got, err, next[0].JobID, next[0].Arm)
			}
			if step%3 == 2 { // leave some arms in flight, settle the rest
				continue
			}
			for _, s := range []struct {
				sc *Scheduler
				l  *Lease
			}{{sc, got[0]}, {twin, next[0]}} {
				if err := s.sc.Complete(s.l, 0.4+0.03*float64(step), 1); err != nil {
					t.Fatal(err)
				}
			}
		}
		checkIndexConsistent(t, sc)
	}
}

// A settle observes under the job's lock and publishes under coordMu a
// moment later. A pick that lands in between — here: an observation made
// on a leased job's bandit with no publish at all — finds the bandit ahead
// of the view, publishes the live scalars itself — moving the job's epoch —
// rebuilds the shadow that predates the observation, and picks again; the
// observed arm is never leased a second time.
func TestPickRepublishesWhenBanditIsAheadOfView(t *testing.T) {
	sc := NewScheduler(NewSimTrainer(cluster.NewPool(8, 0.9), 99), nil, "http://test:9000")
	job, err := sc.Submit("a", recoveryImgProgram)
	if err != nil {
		t.Fatal(err)
	}
	held, err := sc.Grant(3, 0) // three arms in flight: the job picks through its shadow
	if err != nil || len(held) != 3 {
		t.Fatalf("standing set: %v %v", held, err)
	}
	before := sc.SelectionStats()
	known := map[string]uint64{}
	for _, d := range sc.PosteriorDeltas(known) {
		known[d.JobID] = d.Epoch
	}

	// The first half of a settle, without the second.
	observed := held[0]
	job.mu.Lock()
	if err := job.tenant.Bandit.Observe(observed.Arm, 0.9); err != nil {
		t.Fatal(err)
	}
	job.tenant.RecordObservation(observed.UCB, 0.9)
	job.mu.Unlock()

	got, err := sc.Grant(1, 0)
	if err != nil || len(got) != 1 {
		t.Fatalf("Grant over a pending publish: %v %v", got, err)
	}
	for _, l := range held {
		if got[0].Arm == l.Arm {
			t.Fatalf("arm %d leased twice", l.Arm)
		}
	}
	after := sc.SelectionStats()
	if after.StalePicks != before.StalePicks+1 {
		t.Errorf("stale picks %d → %d, want one", before.StalePicks, after.StalePicks)
	}
	if after.ShadowsBuilt != before.ShadowsBuilt+1 {
		t.Errorf("shadows built %d → %d: the pre-observation shadow was revived", before.ShadowsBuilt, after.ShadowsBuilt)
	}
	if ds := sc.PosteriorDeltas(known); len(ds) != 1 || ds[0].JobID != job.ID || ds[0].Epoch <= known[job.ID] {
		t.Errorf("the republish did not move the job's epoch past %d: %v", known[job.ID], ds)
	}

	// The settle's own publish arrives late and finds the view already there.
	job.mu.Lock()
	score := job.tenant.Scalars()
	job.mu.Unlock()
	latePublish(sc, observed, score)
	if bumps := sc.SelectionStats().EpochBumps; bumps != after.EpochBumps {
		t.Errorf("a publish the view already held bumped the epoch (%d → %d)", after.EpochBumps, bumps)
	}
	checkIndexConsistent(t, sc)
}

// latePublish is a settle's publish of s reaching coordMu after other
// movers of l's job, followed by the settle's lease drop.
func latePublish(sc *Scheduler, l *Lease, s core.Scalars) {
	sc.coordMu.Lock()
	sc.selIdx.publish(l.entry, s)
	sc.coordMu.Unlock()
	sc.endSettle(l)
}

// quotaScheduler builds a scheduler under the given quotas with one job per
// listed tenant, in that order.
func quotaScheduler(t *testing.T, program string, tenants []string, quotas map[string]admission.Quota) *Scheduler {
	t.Helper()
	ctrl, err := admission.NewController(admission.Config{Tenants: quotas})
	if err != nil {
		t.Fatal(err)
	}
	sc := NewScheduler(NewSimTrainer(cluster.NewPool(8, 0.9), 99), ctrl, "http://test:9000")
	for _, tenant := range tenants {
		if _, err := sc.Submit(tenant, program); err != nil {
			t.Fatal(err)
		}
	}
	return sc
}

// A budget drain and a settle of one job can reach coordMu out of bandit
// order: the settle reads its scalars, the drain retires every arm and
// publishes, and only then does the settle's publish arrive. Tried only
// grows, so the older publish is dropped and the drained view stays.
func TestLatePublishDoesNotReviveADrainedView(t *testing.T) {
	sc := quotaScheduler(t, recoveryTSProgram, []string{"carol", "alice"}, map[string]admission.Quota{
		"carol": {Class: admission.ClassBestEffort, Budget: 1e-9}, // the first settle exhausts it
	})
	carol := sc.Jobs()[0]
	var slow, fast *Lease
	for slow == nil || fast == nil {
		ls, err := sc.Grant(1, 0)
		if err != nil || len(ls) != 1 {
			t.Fatalf("grant: %v %v", ls, err)
		}
		switch {
		case ls[0].JobID != carol.ID:
			if err := sc.Release(ls[0]); err != nil {
				t.Fatal(err)
			}
		case slow == nil:
			slow = ls[0]
		default:
			fast = ls[0]
		}
	}
	// The slow settle observes and reads its scalars, then stalls before
	// coordMu.
	carol.mu.Lock()
	if err := carol.tenant.Bandit.Observe(slow.Arm, 0.5); err != nil {
		t.Fatal(err)
	}
	carol.tenant.RecordObservation(slow.UCB, 0.5)
	stale := carol.tenant.Scalars()
	carol.mu.Unlock()
	// The fast settle completes and its budget check drains the job.
	if err := sc.Complete(fast, 0.6, 1); err != nil {
		t.Fatal(err)
	}
	if !sc.BudgetExhausted(carol.ID) {
		t.Fatal("the job was not drained")
	}
	// Now the slow settle's publish lands.
	latePublish(sc, slow, stale)
	checkIndexConsistent(t, sc)
	for {
		ls, err := sc.Grant(1, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(ls) == 0 {
			break
		}
		if ls[0].JobID == carol.ID {
			t.Fatalf("drained job leased %s again", ls[0].Candidate.Name())
		}
		if err := sc.Complete(ls[0], 0.5, 1); err != nil {
			t.Fatal(err)
		}
	}
}

// A job retired wholesale (failure, budget drain) between the user pick
// and the arm pick — its view still says active — yields the next job, not
// the "reported active but selected no arm" error.
func TestPickSkipsJobRetiredBehindItsView(t *testing.T) {
	sc, twin := equivScheduler(t, 3, false), equivScheduler(t, 3, false)
	next, err := referenceGrant(twin, 1, 0)
	if err != nil || len(next) != 1 {
		t.Fatalf("twin: %v %v", next, err)
	}
	doomed, _ := sc.Job(next[0].JobID)
	doomed.mu.Lock()
	sc.failJobLocked(doomed, errors.New("test: retired behind the view"))
	doomed.mu.Unlock()

	granted := 0
	for {
		ls, err := sc.Grant(1, 0)
		if err != nil {
			t.Fatalf("grant after %d leases: %v", granted, err)
		}
		if len(ls) == 0 {
			break
		}
		if ls[0].JobID == doomed.ID {
			t.Fatalf("retired job leased %s", ls[0].Candidate.Name())
		}
		granted++
		if err := sc.Complete(ls[0], 0.5, 1); err != nil {
			t.Fatal(err)
		}
	}
	if want := 2 * len(doomed.Candidates); granted != want {
		t.Errorf("granted %d leases, want the other two jobs' %d", granted, want)
	}
	if st := sc.SelectionStats(); st.StalePicks != 1 {
		t.Errorf("stale picks = %d, want 1", st.StalePicks)
	}
	checkIndexConsistent(t, sc)

	// The redone pick is visible to an operator in the scrape.
	srv := httptest.NewServer(NewAPI(sc).Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if want := `easeml_selection_events_total{event="stale_picks"} 1`; !strings.Contains(string(body), want) {
		t.Errorf("GET /metrics does not report %s", want)
	}
}

// What a lease allocates does not depend on how many jobs were not chosen.
func TestGrantAllocationsDoNotDependOnJobCount(t *testing.T) {
	perGrant := func(n int) float64 {
		sc := equivScheduler(t, n, true)
		if _, err := sc.RunRounds(3 * n); err != nil {
			t.Fatal(err)
		}
		// Nothing stands in flight, so every measured pick is the same kind:
		// the chosen job's own SelectArm, no shadow.
		return testing.AllocsPerRun(200, func() {
			ls, err := sc.Grant(1, 0)
			if err != nil || len(ls) != 1 {
				t.Fatalf("grant: %v %v", ls, err)
			}
			if err := sc.Release(ls[0]); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := perGrant(64), perGrant(1024)
	if small != large {
		t.Errorf("Grant+Release allocates %.0f times at J=64 and %.0f at J=1024", small, large)
	}
}

// Eight goroutines settle while one grants: every settle publishes under
// coordMu what it read under its job's lock, every pick reads the views and
// locks only the job it chose. Run under -race; at quiescence the index must
// equal the state it copies and every candidate must have trained once.
func TestConcurrentSettlesAgainstGrants(t *testing.T) {
	const settlers = 8
	sc := quotaScheduler(t, recoveryImgProgram, []string{"g1", "s1", "b1", "g2", "s2", "b2"}, map[string]admission.Quota{
		"g1": {Class: admission.ClassGuaranteed}, "g2": {Class: admission.ClassGuaranteed},
		"b1": {Class: admission.ClassBestEffort}, "b2": {Class: admission.ClassBestEffort},
	})
	work := make(chan *Lease, settlers) // one slot per settler: the granter stays just ahead
	var wg sync.WaitGroup
	for g := 0; g < settlers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for l := range work {
				var err error
				if (l.ID+g)%7 == 0 {
					err = sc.Release(l)
				} else {
					err = sc.Complete(l, 0.3+0.01*float64(l.ID%50), 1)
				}
				if err != nil {
					t.Error(err)
				}
			}
		}(g)
	}
	granted := 0
	for idle := 0; idle < 1000; {
		// Sample idleness before the grant, as engine.dispatch does: a
		// settle finishes before it leaves InFlight, so "nothing in flight,
		// then nothing granted" proves the scheduler dry. Read after an empty
		// grant at the ceiling, a zero only says the settlers caught up —
		// and their releases may have reopened arms the grant never saw.
		idleBefore := sc.InFlight() == 0
		ls, err := sc.Grant(2, settlers)
		if err != nil {
			t.Error(err)
			break
		}
		if len(ls) == 0 {
			if idleBefore {
				break // drained
			}
			idle++
			time.Sleep(100 * time.Microsecond) // at the ceiling: let the settlers catch up
			continue
		}
		idle = 0
		granted += len(ls)
		for _, l := range ls {
			work <- l
		}
	}
	close(work)
	wg.Wait()
	checkIndexConsistent(t, sc)
	trained := 0
	for _, job := range sc.Jobs() {
		st, err := sc.Status(job.ID)
		if err != nil {
			t.Fatal(err)
		}
		if st.Trained != st.NumCandidates {
			t.Errorf("%s trained %d of %d candidates", job.ID, st.Trained, st.NumCandidates)
		}
		trained += st.Trained
	}
	if granted < trained {
		t.Errorf("granted %d leases for %d trained candidates", granted, trained)
	}
	t.Logf("%d leases, %d stale picks redone", granted, sc.SelectionStats().StalePicks)
}
