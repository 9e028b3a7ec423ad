package server

import (
	"errors"
	"maps"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/admission"
	"repro/internal/telemetry"
)

// Every lease of a serialized RunRound records the same spans — the lease
// root, its selection stage, its Grant's lock wait and the settle, plus the
// WAL append when the scheduler is durable — and nothing else lands in the
// recorder: the count that pins that the spans are all still recorded.
func TestSpansPerLease(t *testing.T) {
	recorded := telemetry.Default().Counter("easeml_trace_spans_total", "")
	perLease := map[string]int{"lease": 1, "pick_select": 1, "pick_lock_wait": 1, "settle": 1}

	check := func(t *testing.T, sc *Scheduler, want map[string]int) int {
		t.Helper()
		job, err := sc.Submit("span-count", recoveryTSProgram)
		if err != nil {
			t.Fatal(err)
		}
		n, err := sc.RunRounds(len(job.Candidates))
		if err != nil || n != len(job.Candidates) {
			t.Fatalf("RunRounds: %d of %d (%v)", n, len(job.Candidates), err)
		}
		picks := sc.Decisions(DecisionFilter{Job: job.ID, Kind: DecisionPick})
		if len(picks) != n {
			t.Fatalf("%d pick decisions for %d leases", len(picks), n)
		}
		for _, p := range picks {
			spans, _ := telemetry.DefaultRecorder().Trace(p.Trace)
			ops := map[string]int{}
			for _, sd := range spans {
				ops[sd.Op]++
			}
			if !maps.Equal(ops, want) {
				t.Errorf("lease trace %s recorded %v, want %v", p.Trace, ops, want)
			}
		}
		return n
	}

	t.Run("memory", func(t *testing.T) {
		before := recorded.Value()
		n := check(t, newTestScheduler(t), perLease)
		if got := recorded.Value() - before; got != uint64(4*n) {
			t.Errorf("%d leases recorded %d spans, want %d", n, got, 4*n)
		}
	})
	t.Run("durable", func(t *testing.T) {
		sc, log := newDurableScheduler(t, t.TempDir())
		defer log.Close()
		want := maps.Clone(perLease)
		want["wal_append"] = 1
		check(t, sc, want)
	})
}

// Every terminal path of a lease — a completing settle, a failed run's
// settle (an abandon, at a retry budget of one), a release, expiry and
// preemption — races the others on the same leases, round after round.
// Each lease's trace holds exactly one root span, carrying the outcome of
// the one path that claimed the lease: the claim under coordMu is all
// that keeps a second path from ending the root again. A lease with no
// trace records nothing.
func TestLeaseRootEndsExactlyOnce(t *testing.T) {
	sc := newTestScheduler(t)
	ctrl, err := admission.NewController(admission.Config{Tenants: map[string]admission.Quota{
		"alice": {Class: admission.ClassGuaranteed},
		"carol": {Class: admission.ClassBestEffort},
	}})
	if err != nil {
		t.Fatal(err)
	}
	sc.SetAdmission(ctrl)
	var clock atomic.Int64
	sc.SetClock(func() time.Time { return time.Unix(clock.Load(), 0) })
	sc.SetLeaseTTL(time.Second)
	sc.SetRetryBudget(1) // a failed run's settle abandons; Release releases
	for k := 0; k < 12; k++ {
		for _, tenant := range []string{"carol", "carol", "alice"} {
			if _, err := sc.Submit(tenant, recoveryTSProgram); err != nil {
				t.Fatal(err)
			}
		}
	}

	recorded := telemetry.Default().Counter("easeml_trace_spans_total", "")
	rounds, seen := 200, map[string]int{}
	if testing.Short() {
		rounds = 50
	}
	for round := 0; round < rounds; round++ {
		before := recorded.Value()
		leases, err := sc.Grant(4, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(leases) == 0 {
			break
		}
		for _, l := range leases {
			if err := sc.AssignLease(l, "worker-0001"); err != nil {
				t.Fatal(err)
			}
		}
		clock.Add(10) // every lease assigned this round is past its TTL

		var mu sync.Mutex
		claims := map[*Lease][]string{}
		claim := func(l *Lease, outcome string) {
			mu.Lock()
			claims[l] = append(claims[l], outcome)
			mu.Unlock()
		}
		var wg sync.WaitGroup
		race := func(f func()) {
			wg.Add(1)
			go func() { defer wg.Done(); f() }()
		}
		for _, l := range leases {
			race(func() {
				if settled, err := sc.Settle(l, 0.5, 1, nil); err == nil {
					claim(l, settled)
				}
			})
			race(func() {
				if settled, err := sc.Settle(l, 0, 0, errors.New("run failed")); err == nil {
					claim(l, settled)
				}
			})
			race(func() {
				if sc.Release(l) == nil {
					claim(l, "released")
				}
			})
		}
		race(func() {
			expired, err := sc.ExpireLeases()
			if err != nil {
				t.Error(err)
			}
			for _, l := range expired {
				claim(l, "expired")
			}
		})
		race(func() {
			victim, err := sc.PreemptForPriority()
			if err != nil {
				t.Error(err)
			}
			if victim != nil {
				claim(victim, "preempted")
			}
		})
		wg.Wait()

		readBack := 0
		for _, l := range leases {
			if len(claims[l]) != 1 {
				t.Fatalf("round %d: lease %d claimed by %v, want exactly one terminal path", round, l.ID, claims[l])
			}
			spans, _ := telemetry.DefaultRecorder().Trace(l.Trace)
			readBack += len(spans)
			var roots []string
			for _, sd := range spans {
				if sd.Op == "lease" {
					roots = append(roots, sd.Attrs["outcome"])
				}
			}
			if want := claims[l][0]; len(roots) != 1 || roots[0] != want {
				t.Fatalf("round %d: lease %d recorded roots with outcomes %v, want one %q", round, l.ID, roots, want)
			}
			seen[claims[l][0]]++
		}
		// A trace reads back one copy of each span: a root ended twice
		// would be recorded twice under one ID.
		if n := recorded.Value() - before; n != uint64(readBack) {
			t.Fatalf("round %d: %d spans recorded, %d distinct read back", round, n, readBack)
		}
	}
	for _, outcome := range []string{"completed", "released", "abandoned", "expired", "preempted"} {
		if seen[outcome] == 0 {
			t.Errorf("no lease ended %q over the run (%v): the race did not cover that path", outcome, seen)
		}
	}

	finishLeaseSpan(&Lease{ID: 1 << 40}, "expired", nil)
	if spans, ok := telemetry.DefaultRecorder().Trace(""); ok {
		t.Fatalf("a lease with no trace recorded %+v", spans)
	}
}
