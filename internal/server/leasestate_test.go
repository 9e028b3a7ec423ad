package server

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/telemetry"
)

// Every path that can end or touch a lease — a completing settle, a failed
// run's settle, Release, ExpireLeases, AssignLease and HeartbeatLease —
// races the others on the same leases, round after round, while a granter
// leases and releases beside them. A settle claims its lease by CAS without
// coordMu, every other terminal path by CAS under it, so exactly one
// terminal path wins each lease; an arm is never both leased and tried; and
// a failed run's release is tallied once, an observation or an abandon
// clearing the tally.
func TestLeaseStateRace(t *testing.T) {
	sc := NewScheduler(NewSimTrainer(cluster.NewPool(8, 0.9), 58), nil, "")
	for k := 0; k < 6; k++ {
		if _, err := sc.Submit(fmt.Sprintf("t%d", k), recoveryImgProgram); err != nil {
			t.Fatal(err)
		}
	}
	var clock atomic.Int64
	now := func() time.Time { return time.Unix(clock.Load(), 0) }
	const worker = "worker-0001"
	tally := map[failKey]int{} // what the failure tally must hold
	rounds := 200
	if testing.Short() {
		rounds = 50
	}
	for round := 0; round < rounds; round++ {
		leases, err := sc.Grant(3, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(leases) == 0 {
			break
		}
		for _, l := range leases {
			if err := sc.AssignLease(l, worker, now().Add(time.Second)); err != nil {
				t.Fatal(err)
			}
		}
		clock.Add(10) // every lease of the round is past its deadline

		var mu sync.Mutex
		claims := map[*Lease][]string{}
		claim := func(l *Lease, outcome string) {
			mu.Lock()
			claims[l] = append(claims[l], outcome)
			mu.Unlock()
		}
		var wg sync.WaitGroup
		start := make(chan struct{}) // every path starts at once
		race := func(f func()) {
			wg.Add(1)
			go func() { defer wg.Done(); <-start; f() }()
		}
		for _, l := range leases {
			for range 2 { // two of each settle: a settle also races a settle
				race(func() {
					if settled, err := sc.Settle(l, 0.5, 1, nil); err == nil {
						claim(l, settled)
					}
				})
				race(func() {
					if settled, err := sc.Settle(l, 0, 0, errors.New("run failed")); err == nil {
						claim(l, "failed/"+settled)
					}
				})
			}
			race(func() {
				if sc.Release(l) == nil {
					claim(l, "released")
				}
			})
			race(func() { _ = sc.AssignLease(l, worker, now().Add(-time.Second)) })
			race(func() { _ = sc.HeartbeatLease(l.ID, worker, now().Add(-time.Second)) })
		}
		race(func() {
			expired, err := sc.ExpireLeases(now())
			if err != nil {
				t.Error(err)
			}
			for _, l := range expired {
				claim(l, "expired")
			}
		})
		race(func() { // a grant beside the race never leases a tried arm
			ls, err := sc.Grant(1, 0)
			if err != nil || len(ls) == 0 {
				return
			}
			job := ls[0].job
			job.mu.Lock()
			tried := job.tenant.Bandit.Tried(ls[0].Arm)
			job.mu.Unlock()
			if tried {
				t.Errorf("round %d: granted %s/%d, a tried arm", round, ls[0].JobID, ls[0].Arm)
			}
			if err := sc.Release(ls[0]); err != nil {
				t.Error(err)
			}
		})
		race(func() { // no lease in the table holds a tried arm, or an arm twice
			for range 5 {
				if err := sc.checkLeasedUntried(); err != nil {
					t.Error(err)
				}
			}
		})
		close(start)
		wg.Wait()

		for _, l := range leases {
			if len(claims[l]) != 1 {
				t.Fatalf("round %d: lease %d claimed by %v, want exactly one terminal path", round, l.ID, claims[l])
			}
			key := failKey{l.JobID, l.Arm}
			switch claims[l][0] {
			case "failed/" + SettledReleased:
				tally[key]++
			case SettledCompleted, "failed/" + SettledAbandoned:
				delete(tally, key)
			}
			if got := l.state.Load(); got != leaseGone {
				t.Fatalf("round %d: lease %d ended in state %d", round, l.ID, got)
			}
		}
		sc.coordMu.Lock()
		got := maps.Clone(sc.failCounts)
		sc.coordMu.Unlock()
		if !maps.Equal(got, tally) {
			t.Fatalf("round %d: failure tally %v, want %v", round, got, tally)
		}
		if err := sc.checkLeasedUntried(); err != nil {
			t.Fatal(err)
		}
		checkIndexConsistent(t, sc)
	}
}

// checkLeasedUntried reports an outstanding lease whose arm is tried, or
// two leases in the table on one arm.
func (sc *Scheduler) checkLeasedUntried() error {
	sc.coordMu.Lock()
	defer sc.coordMu.Unlock()
	seen := map[failKey]bool{}
	for _, l := range sc.leases {
		key := failKey{l.JobID, l.Arm}
		if seen[key] {
			return fmt.Errorf("arm %s/%d is leased twice", l.JobID, l.Arm)
		}
		seen[key] = true
		l.job.mu.Lock()
		tried := l.job.tenant.Bandit.Tried(l.Arm)
		l.job.mu.Unlock()
		if tried && l.state.Load() == leaseOutstanding {
			return fmt.Errorf("lease %d holds %s/%d, which is tried", l.ID, l.JobID, l.Arm)
		}
	}
	return nil
}

// Grant builds its last pick's decision record after coordMu, under the
// chosen job's lock only. A settle of the same job racing it must land
// wholly before or wholly after the record: its top-K is the surface
// before the observation or the one after, never a mix, and its candidate
// count is that surface's selectable arms less the arms in flight when
// the arm was picked — the standing lease, unless the settle had dropped
// it. A pick that lands between the settle's observation and its publish
// is redone on the observed surface (a stale pick) with the settling lease
// still in flight.
func TestGrantRecordSeesThePickedSurface(t *testing.T) {
	sc := newTestScheduler(t)
	job, err := sc.Submit("a", recoveryImgProgram)
	if err != nil {
		t.Fatal(err)
	}
	surface := func() ([]ArmScore, int) {
		var top [telemetry.InlineTopUCB]ArmScore
		job.mu.Lock()
		defer job.mu.Unlock()
		n, selectable := topUCB(&top, job.tenant.Bandit.UCBView())
		return slices.Clone(top[:n]), selectable
	}
	standing, err := sc.Grant(1, 0)
	if err != nil || len(standing) != 1 {
		t.Fatalf("standing lease: %v %v", standing, err)
	}
	for round := 0; ; round++ {
		before, selectable := surface()
		stale := sc.SelectionStats().StalePicks
		var granted []*Lease
		var grantErr error
		var wg sync.WaitGroup
		start := make(chan struct{})
		wg.Add(2)
		go func() { defer wg.Done(); <-start; granted, grantErr = sc.Grant(1, 0) }()
		go func() {
			defer wg.Done()
			<-start
			if err := sc.Complete(standing[0], 0.3+0.01*float64(round%40), 1); err != nil {
				t.Error(err)
			}
		}()
		close(start)
		wg.Wait()
		if grantErr != nil {
			t.Fatal(grantErr)
		}
		if len(granted) == 0 {
			break
		}
		after, _ := surface()
		l := granted[0]
		ds := sc.Decisions(DecisionFilter{Trace: l.Trace, Kind: DecisionPick})
		if len(ds) != 1 {
			t.Fatalf("round %d: %d pick records for lease %d", round, len(ds), l.ID)
		}
		d := ds[0]
		if !slices.Equal(d.TopUCB, before) && !slices.Equal(d.TopUCB, after) {
			t.Fatalf("round %d: record top-K %v is neither the surface before the settle %v nor after %v", round, d.TopUCB, before, after)
		}
		// Before the settle: one arm leased; after it: one arm tried, and
		// one leased too when the pick was redone before the publish.
		want := selectable - 1 - int(sc.SelectionStats().StalePicks-stale)
		if d.Candidates != want {
			t.Fatalf("round %d: record counts %d candidates, want %d", round, d.Candidates, want)
		}
		standing = granted
	}
	checkIndexConsistent(t, sc)
}
