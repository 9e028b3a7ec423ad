package server_test

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/server"
	"repro/internal/storage"
)

func TestPickWorkLeasesDistinctArms(t *testing.T) {
	sc := newScheduler(t)
	job, err := sc.Submit("a", imgProgram)
	if err != nil {
		t.Fatal(err)
	}
	work, err := sc.PickWork(8)
	if err != nil {
		t.Fatal(err)
	}
	if len(work) != 8 {
		t.Fatalf("leased %d items, want 8", len(work))
	}
	seen := map[int]bool{}
	for _, l := range work {
		if l.JobID != job.ID {
			t.Errorf("lease for unknown job %q", l.JobID)
		}
		if seen[l.Arm] {
			t.Errorf("arm %d leased twice in one batch", l.Arm)
		}
		seen[l.Arm] = true
		if l.Candidate.Name() != job.Candidates[l.Arm].Name() {
			t.Errorf("lease arm %d carries candidate %q", l.Arm, l.Candidate.Name())
		}
	}
	if sc.InFlight() != 8 {
		t.Errorf("in-flight %d, want 8", sc.InFlight())
	}
	// Already at the cap: no new leases.
	more, err := sc.PickWork(8)
	if err != nil {
		t.Fatal(err)
	}
	if len(more) != 0 {
		t.Errorf("PickWork above cap leased %d more", len(more))
	}
}

func TestPickWorkSpreadsAcrossJobs(t *testing.T) {
	sc := newScheduler(t)
	if _, err := sc.Submit("a", tsProgram); err != nil {
		t.Fatal(err)
	}
	if _, err := sc.Submit("b", tsProgram); err != nil {
		t.Fatal(err)
	}
	// 8 candidates total across two 4-candidate jobs: a full lease-out must
	// cover both jobs and every arm exactly once.
	work, err := sc.PickWork(16)
	if err != nil {
		t.Fatal(err)
	}
	if len(work) != 8 {
		t.Fatalf("leased %d items, want all 8", len(work))
	}
	perJob := map[string]int{}
	for _, l := range work {
		perJob[l.JobID]++
	}
	if len(perJob) != 2 {
		t.Errorf("leases cover %d jobs, want 2", len(perJob))
	}
}

func TestCompleteAndReleaseLifecycle(t *testing.T) {
	sc := newScheduler(t)
	if _, err := sc.Submit("a", tsProgram); err != nil {
		t.Fatal(err)
	}
	work, err := sc.PickWork(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(work) != 2 {
		t.Fatalf("leased %d", len(work))
	}
	if err := sc.Complete(work[0], 0.8, 10); err != nil {
		t.Fatal(err)
	}
	if sc.Rounds() != 1 || sc.InFlight() != 1 {
		t.Errorf("rounds %d in-flight %d after one completion", sc.Rounds(), sc.InFlight())
	}
	// Double-complete and complete-after-release must error.
	if err := sc.Complete(work[0], 0.8, 10); err == nil {
		t.Error("double Complete accepted")
	}
	if err := sc.Release(work[1]); err != nil {
		t.Fatal(err)
	}
	if err := sc.Complete(work[1], 0.5, 10); err == nil {
		t.Error("Complete after Release accepted")
	}
	if err := sc.Release(work[1]); err == nil {
		t.Error("double Release accepted")
	}
	// The released arm is selectable again.
	again, err := sc.PickWork(4)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, l := range again {
		if l.Arm == work[1].Arm {
			found = true
		}
	}
	if !found {
		t.Errorf("released arm %d never re-leased (got %v)", work[1].Arm, again)
	}

	if _, err := sc.PickWork(0); err == nil {
		t.Error("non-positive maxInFlight accepted")
	}
	if err := sc.Complete(nil, 0, 0); err == nil {
		t.Error("nil lease accepted by Complete")
	}
	if err := sc.Release(nil); err == nil {
		t.Error("nil lease accepted by Release")
	}
}

// Recover rebuilds state into a fresh scheduler only: one that already
// holds jobs or leases is refused, so recovery never races live scheduling.
func TestRecoverRequiresFreshScheduler(t *testing.T) {
	sc := server.NewScheduler(server.NewSimTrainer(cluster.NewPool(2, 0.9), 1), nil, "")
	if _, err := sc.Submit("a", tsProgram); err != nil {
		t.Fatal(err)
	}
	if _, _, err := sc.Recover(t.TempDir(), storage.LogOptions{}); err == nil {
		t.Error("Recover after a submission accepted")
	}
	if _, err := sc.PickWork(1); err != nil {
		t.Fatal(err)
	}
	if _, _, err := sc.Recover(t.TempDir(), storage.LogOptions{}); err == nil {
		t.Error("Recover with outstanding leases accepted")
	}
}
