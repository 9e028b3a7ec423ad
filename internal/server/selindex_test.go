package server

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/admission"
	"repro/internal/cluster"
)

// equivScheduler builds a scheduler with n jobs over the simulated trainer.
// withQuotas additionally installs an admission controller cycling the
// three service classes, putting the class-weighted picker (and its tenant
// masking) on the pick path.
func equivScheduler(t *testing.T, n int, withQuotas bool) *Scheduler {
	t.Helper()
	sc := NewScheduler(NewSimTrainer(cluster.NewPool(8, 0.9), 99), nil, "http://test:9000")
	if withQuotas {
		classes := []admission.Class{admission.ClassGuaranteed, admission.ClassStandard, admission.ClassBestEffort}
		tenants := make(map[string]admission.Quota, n)
		for i := 0; i < n; i++ {
			tenants[fmt.Sprintf("equiv-%d", i)] = admission.Quota{Class: classes[i%len(classes)]}
		}
		ctrl, err := admission.NewController(admission.Config{Tenants: tenants})
		if err != nil {
			t.Fatal(err)
		}
		sc.SetAdmission(ctrl)
	}
	for i := 0; i < n; i++ {
		if _, err := sc.Submit(fmt.Sprintf("equiv-%d", i), recoveryTSProgram); err != nil {
			t.Fatal(err)
		}
	}
	return sc
}

// driveEquivalence runs an identical randomized lease-lifecycle interleaving
// (picks, completions, releases, abandons) against scheduler A, picked by
// Grant, and scheduler B, picked by referenceGrant (the linear-scan,
// deep-clone picker of reference_test.go), asserting every decision matches.
func driveEquivalence(t *testing.T, seed int64, withQuotas bool) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	n := 4 + rng.Intn(5)
	a := equivScheduler(t, n, withQuotas)
	b := equivScheduler(t, n, withQuotas)

	var outA, outB []*Lease
	for step := 0; step < 400; step++ {
		switch op := rng.Intn(10); {
		case op < 4: // lease a batch
			n := len(a.InFlightLeases()) + 1 + rng.Intn(3)
			la, errA := a.Grant(n, n)
			lb, errB := referenceGrant(b, n, n)
			if (errA == nil) != (errB == nil) {
				t.Fatalf("seed %d step %d: pick errors diverged: %v vs %v", seed, step, errA, errB)
			}
			if len(la) != len(lb) {
				t.Fatalf("seed %d step %d: picked %d vs %d leases", seed, step, len(la), len(lb))
			}
			for i := range la {
				if la[i].JobID != lb[i].JobID || la[i].Arm != lb[i].Arm || la[i].UCB != lb[i].UCB {
					t.Fatalf("seed %d step %d: pick %d diverged: %s/%d@%v vs %s/%d@%v",
						seed, step, i, la[i].JobID, la[i].Arm, la[i].UCB, lb[i].JobID, lb[i].Arm, lb[i].UCB)
				}
			}
			outA = append(outA, la...)
			outB = append(outB, lb...)
		case op < 7 && len(outA) > 0: // complete with the same result
			i := rng.Intn(len(outA))
			acc, cost := 0.3+0.6*rng.Float64(), 1+rng.Float64()
			errA := a.Complete(outA[i], acc, cost)
			errB := b.Complete(outB[i], acc, cost)
			if (errA == nil) != (errB == nil) {
				t.Fatalf("seed %d step %d: complete errors diverged: %v vs %v", seed, step, errA, errB)
			}
			outA = append(outA[:i], outA[i+1:]...)
			outB = append(outB[:i], outB[i+1:]...)
		case op < 9 && len(outA) > 0: // hand a lease back untrained
			i := rng.Intn(len(outA))
			if err := a.Release(outA[i]); err != nil {
				t.Fatal(err)
			}
			if err := b.Release(outB[i]); err != nil {
				t.Fatal(err)
			}
			outA = append(outA[:i], outA[i+1:]...)
			outB = append(outB[:i], outB[i+1:]...)
		case len(outA) > 0: // abandon (retire the candidate)
			i := rng.Intn(len(outA))
			if err := a.Abandon(outA[i]); err != nil {
				t.Fatal(err)
			}
			if err := b.Abandon(outB[i]); err != nil {
				t.Fatal(err)
			}
			outA = append(outA[:i], outA[i+1:]...)
			outB = append(outB[:i], outB[i+1:]...)
		}
	}
	// Settle stragglers and drain both schedulers to exhaustion through
	// the serialized path; every round must keep matching.
	for i := range outA {
		_ = a.Release(outA[i])
		_ = b.Release(outB[i])
	}
	for {
		la, errA := a.Grant(1, 0)
		lb, errB := referenceGrant(b, 1, 0)
		if (errA == nil) != (errB == nil) || len(la) != len(lb) {
			t.Fatalf("seed %d drain: diverged (%v/%d vs %v/%d)", seed, errA, len(la), errB, len(lb))
		}
		if len(la) == 0 {
			break
		}
		if la[0].JobID != lb[0].JobID || la[0].Arm != lb[0].Arm {
			t.Fatalf("seed %d drain: %s/%d vs %s/%d", seed, la[0].JobID, la[0].Arm, lb[0].JobID, lb[0].Arm)
		}
		acc := 0.2 + 0.7*rng.Float64()
		if err := a.Complete(la[0], acc, 1); err != nil {
			t.Fatal(err)
		}
		if err := b.Complete(lb[0], acc, 1); err != nil {
			t.Fatal(err)
		}
	}
	// Final state must agree exactly.
	jobsA, jobsB := a.Jobs(), b.Jobs()
	for i := range jobsA {
		sa, err := a.Status(jobsA[i].ID)
		if err != nil {
			t.Fatal(err)
		}
		sb, err := b.Status(jobsB[i].ID)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(sa, sb) {
			t.Fatalf("seed %d: job %s status diverged:\nindexed: %+v\nlegacy:  %+v", seed, jobsA[i].ID, sa, sb)
		}
	}
	if a.Rounds() != b.Rounds() {
		t.Fatalf("seed %d: rounds %d vs %d", seed, a.Rounds(), b.Rounds())
	}
}

// TestIndexedSelectionMatchesDeepCloneBaseline is the end-to-end
// bit-identity guarantee of the selection index: the heap-backed,
// epoch-cached, shadow-reusing pick path must make exactly the decisions
// of the reference deep-clone picker under randomized lease
// lifecycles — with the default hybrid picker and with the class-weighted
// wrapper (masked tenants) in front of it.
func TestIndexedSelectionMatchesDeepCloneBaseline(t *testing.T) {
	seeds := int64(6)
	if testing.Short() {
		seeds = 2
	}
	for seed := int64(1); seed <= seeds; seed++ {
		driveEquivalence(t, seed, false)
		driveEquivalence(t, seed, true)
	}
}

// InFlightLeases is a test helper counting outstanding leases.
func (sc *Scheduler) InFlightLeases() []int {
	sc.coordMu.Lock()
	defer sc.coordMu.Unlock()
	ids := make([]int, 0, len(sc.leases))
	for id := range sc.leases {
		ids = append(ids, id)
	}
	return ids
}

// The selection index must actually be exercised on the default path:
// oracle picks, epoch bumps, rescoring bounded by dirt, and shadow reuse
// within a lease batch.
func TestSelectionStatsCounters(t *testing.T) {
	sc := equivScheduler(t, 8, false)
	leases, err := sc.PickWork(6)
	if err != nil {
		t.Fatal(err)
	}
	if len(leases) != 6 {
		t.Fatalf("picked %d leases", len(leases))
	}
	st := sc.SelectionStats()
	if st.OraclePicks == 0 {
		t.Fatalf("no oracle picks: %+v", st)
	}
	if st.Picks != 6 {
		t.Fatalf("picks = %d, want 6", st.Picks)
	}
	if st.JobsRescored == 0 {
		t.Fatalf("dirty-epoch machinery idle: %+v", st)
	}
	// Leases alone never dirty a job (the greedy gap reads the real
	// bandit, which leases don't touch); only the completion below may.
	if st.EpochBumps != 0 {
		t.Fatalf("picks bumped epochs: %+v", st)
	}
	// Completing dirties exactly one job; the next batch must re-score
	// only it — not all 8.
	if err := sc.Complete(leases[0], 0.8, 1); err != nil {
		t.Fatal(err)
	}
	if got := sc.SelectionStats().EpochBumps; got == 0 {
		t.Fatal("completion did not bump the job's dirty epoch")
	}
	before := sc.SelectionStats().JobsRescored
	if _, err := sc.PickWork(7); err != nil {
		t.Fatal(err)
	}
	after := sc.SelectionStats().JobsRescored
	if delta := after - before; delta > 1 {
		t.Fatalf("pick after one completion re-scored %d jobs, want ≤1 of 8 (the dirtied job only)", delta)
	}

	// A deep batch leases several arms per job: shadows must be built once
	// per (job, batch) and revived for the follow-up picks.
	if _, err := sc.PickWork(24); err != nil {
		t.Fatal(err)
	}
	st = sc.SelectionStats()
	if st.ShadowsBuilt == 0 || st.ShadowsReused == 0 {
		t.Fatalf("shadow cache idle after deep batch: %+v", st)
	}
	// The stock pickers all answer through the index.
	if st.LegacyPicks != 0 {
		t.Fatalf("%d picks bypassed the index: %+v", st.LegacyPicks, st)
	}
}

// PosteriorDeltas(known) returns exactly the jobs whose epoch differs from
// the caller's known one, or that the caller does not know: current epochs
// select nothing, a stale or missing one selects its job.
func TestPosteriorDeltasSkipsKnownEpochs(t *testing.T) {
	sc := equivScheduler(t, 3, false)
	ids := func(ds []PosteriorDelta) []string {
		out := make([]string, len(ds))
		for i, d := range ds {
			out[i] = d.JobID
		}
		return out
	}
	known := map[string]uint64{}
	everything := sc.PosteriorDeltas(known)
	if len(everything) != 3 {
		t.Fatalf("an empty known map returned %v, want all 3 jobs", ids(everything))
	}
	for _, d := range everything {
		known[d.JobID] = d.Epoch
	}
	if ds := sc.PosteriorDeltas(known); len(ds) != 0 {
		t.Errorf("PosteriorDeltas with current epochs returned %v", ids(ds))
	}
	known[everything[1].JobID]++
	delete(known, everything[2].JobID)
	if ds := sc.PosteriorDeltas(known); len(ds) != 2 {
		t.Errorf("PosteriorDeltas with one stale and one missing epoch returned %v", ids(ds))
	}
}
