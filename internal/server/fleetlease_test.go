package server_test

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/server"
)

// firstPickBreaks answers an out-of-range index on its first pick — a
// picker-contract violation — and is HYBRID after that.
type firstPickBreaks struct {
	core.UserPicker
	picks int
}

func (p *firstPickBreaks) Pick(tenants []*core.Tenant) int {
	if p.picks++; p.picks == 1 {
		return len(tenants)
	}
	return p.UserPicker.Pick(tenants)
}

// A fleet Lease call that fails grants nothing: a speculative lease it had
// granted before its pick fallback errored is already assigned to the
// worker, who never sees it, so the call must hand it back rather than let
// it hold its arm until the TTL sweep. (A fleet test kept here because
// CheckIndexConsistent is defined in this package's tests.)
func TestFleetLeaseErrorReleasesSpeculativeGrants(t *testing.T) {
	sc := server.NewScheduler(server.NewSimTrainer(cluster.NewPool(8, 0.9), 42),
		&firstPickBreaks{UserPicker: core.NewHybridPicker()}, "")
	for _, name := range []string{"a", "b"} {
		if _, err := sc.Submit(name, tsProgram); err != nil {
			t.Fatal(err)
		}
	}
	coord := fleet.NewCoordinator(sc, fleet.CoordinatorConfig{Seed: 42})
	worker := coord.Register(fleet.RegisterRequest{Name: "w", Devices: 2}).WorkerID
	propose := func() fleet.LeaseProposal {
		deltas, _ := sc.PosteriorsSince(0)
		return fleet.LeaseProposal{JobID: deltas[0].JobID, Arm: 1, Epoch: deltas[0].Epoch}
	}

	// One valid proposal fills one slot; the pick for the second breaks.
	p := propose()
	resp, err := coord.Lease(fleet.LeaseRequest{WorkerID: worker, Max: 2, Proposals: []fleet.LeaseProposal{p}})
	if err == nil || len(resp.Leases) != 0 {
		t.Fatalf("Lease over a picker that breaks returned %d leases, error %v; want none and an error", len(resp.Leases), err)
	}
	if n := sc.InFlight(); n != 0 {
		t.Fatalf("%d leases outstanding after a failed Lease", n)
	}
	if err := sc.CheckIndexConsistent(); err != nil {
		t.Fatal(err)
	}
	st := coord.FleetStatus()
	if st.RemoteLeases != 0 || st.Workers[0].InFlight != 0 || st.Workers[0].Failures != 0 {
		t.Fatalf("fleet still tracks the withdrawn lease: %d remote, worker %+v", st.RemoteLeases, st.Workers[0])
	}

	// The withdrawn arm is open again: the same proposal, at the job's
	// current epoch, grants it.
	p = propose()
	resp, err = coord.Lease(fleet.LeaseRequest{WorkerID: worker, Max: 1, Proposals: []fleet.LeaseProposal{p}})
	if err != nil || len(resp.Leases) != 1 || resp.Leases[0].JobID != p.JobID || resp.Leases[0].Arm != p.Arm {
		t.Fatalf("re-proposing the withdrawn arm: %+v %v", resp.Leases, err)
	}
}
