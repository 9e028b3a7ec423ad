package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/storage"
)

// A non-positive LeaseRequest.Max is a protocol error: 400 with code
// "bad_request" on the wire, and never sent by the Go client (it defaults
// Max to 1). A previous release's worker, whose bodies still carry
// speculative proposals or a change-feed cursor, is answered 400 too: the
// coordinator decodes with unknown fields disallowed, so worker and
// coordinator upgrade together.
func TestLeaseMaxBadRequest(t *testing.T) {
	sc := newTestScheduler(t)
	coord := NewCoordinator(sc, CoordinatorConfig{Seed: fleetSeed})
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()
	pc := newProtoClient(srv.URL, nil)
	ctx := context.Background()

	reg, err := pc.register(ctx, RegisterRequest{Name: "w", Devices: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Raw bodies go out as written, through the client's JSON plumbing.
	raw := func(path, body string) error {
		var reply json.RawMessage
		return pc.c.PostJSON(ctx, path, json.RawMessage(fmt.Sprintf(body, reg.WorkerID)), &reply)
	}
	if err := raw("/fleet/lease", `{"worker_id":%q,"max":0}`); err == nil {
		t.Fatal("max=0 lease accepted")
	} else {
		pe, ok := err.(*client.APIError)
		if !ok || pe.Status != http.StatusBadRequest || pe.Code != CodeBadRequest {
			t.Errorf("max=0 lease: got %v, want 400 %s", err, CodeBadRequest)
		}
	}
	// The Go client never sends a non-positive Max: it defaults to 1.
	if _, err := pc.lease(ctx, LeaseRequest{WorkerID: reg.WorkerID}); err != nil {
		t.Errorf("client poll with zero Max: %v (should default to 1)", err)
	}

	for _, old := range []struct{ path, body string }{
		{"/fleet/lease", `{"worker_id":%q,"max":1,"proposals":[{"job_id":"job-0001","arm":0,"epoch":1}]}`},
		{"/fleet/lease", `{"worker_id":%q,"max":1,"posterior_version":7}`},
		{"/fleet/complete", `{"worker_id":%q,"lease_id":1,"accuracy":0.5,"cost":1,"posterior_version":7}`},
		{"/fleet/complete", `{"worker_id":%q,"lease_id":1,"accuracy":0.5,"cost":1,"lease":{"max":1,"posterior_version":7}}`},
	} {
		if err := raw(old.path, old.body); err == nil {
			t.Errorf("%s %s accepted", old.path, old.body)
		} else if pe, ok := err.(*client.APIError); !ok || pe.Status != http.StatusBadRequest {
			t.Errorf("%s %s: got %v, want 400", old.path, old.body, err)
		}
	}
}

// The idle-poll backoff doubles per consecutive empty poll, caps at
// 16×base, jitters within ±25%, and defaults a non-positive base.
func TestIdleBackoffGrowsAndCaps(t *testing.T) {
	base := 100 * time.Millisecond
	for streak := 1; streak <= 8; streak++ {
		nominal := base
		for i := 1; i < streak && nominal < 16*base; i++ {
			nominal *= 2
		}
		for i := 0; i < 50; i++ {
			d := idleBackoff(base, streak)
			lo := time.Duration(float64(nominal) * 0.75)
			hi := time.Duration(float64(nominal) * 1.25)
			if d < lo || d > hi {
				t.Fatalf("streak %d: backoff %v outside [%v, %v]", streak, d, lo, hi)
			}
		}
	}
	if d := idleBackoff(0, 1); d < 187*time.Millisecond || d > 313*time.Millisecond {
		t.Errorf("zero base backoff %v, want ±25%% around the 250ms default", d)
	}
}

// Settle-and-lease over the wire: a report that embeds a lease request is
// settled first and then served by the same Lease call a poll reaches, and
// the grant rides the embedded answer. A report that does not settle grants
// nothing.
func TestSettleAndLeaseOverWire(t *testing.T) {
	sc := newTestScheduler(t)
	if _, err := sc.Submit("a", tsProgram); err != nil {
		t.Fatal(err)
	}
	coord := NewCoordinator(sc, CoordinatorConfig{Seed: fleetSeed})
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()
	pc := newProtoClient(srv.URL, nil)
	ctx := context.Background()
	reg, err := pc.register(ctx, RegisterRequest{Name: "w", Devices: 1})
	if err != nil {
		t.Fatal(err)
	}
	lr, err := pc.lease(ctx, LeaseRequest{WorkerID: reg.WorkerID, Max: 1})
	if err != nil || len(lr.Leases) != 1 {
		t.Fatalf("cold-start poll: %+v %v", lr, err)
	}
	first := lr.Leases[0]

	// The embedded request's worker id is ignored: a report can only lease
	// for the worker that sent it.
	chained := CompleteRequest{WorkerID: reg.WorkerID, LeaseID: first.LeaseID, Accuracy: 0.6, Cost: 1,
		Lease: &LeaseRequest{WorkerID: "someone-else", Max: 1}}
	cr, err := pc.complete(ctx, chained)
	if err != nil {
		t.Fatal(err)
	}
	if cr.Settled != "completed" || cr.Lease == nil || len(cr.Lease.Leases) != 1 {
		t.Fatalf("settle-and-lease answered %+v, want a settle and one chained lease", cr)
	}
	next := cr.Lease.Leases[0]
	if next.LeaseID == first.LeaseID || next.Candidate == first.Candidate {
		t.Errorf("chained lease %+v repeats the settled one %+v", next, first)
	}
	if st := coord.FleetStatus(); st.RemoteLeases != 1 || st.Workers[0].InFlight != 1 {
		t.Errorf("after the chain: %d remote leases, worker in-flight %d; want 1 and 1", st.RemoteLeases, st.Workers[0].InFlight)
	}

	// Replaying the report loses the settle race: 409, and the embedded
	// lease request grants nothing.
	if _, err := pc.complete(ctx, chained); err == nil {
		t.Fatal("replayed settle-and-lease accepted")
	} else if pe, ok := err.(*client.APIError); !ok || pe.Status != http.StatusConflict {
		t.Fatalf("replayed settle-and-lease: %v, want 409", err)
	}
	if got := sc.InFlight(); got != 1 {
		t.Errorf("a 409 settle-and-lease left %d leases in flight, want the 1 chained before", got)
	}

	// A malformed embedded request cannot un-settle the report: the settle
	// is acknowledged without a lease answer.
	cr, err = pc.complete(ctx, CompleteRequest{WorkerID: reg.WorkerID, LeaseID: next.LeaseID, Accuracy: 0.5, Cost: 1,
		Lease: &LeaseRequest{Max: 0}})
	if err != nil || cr.Settled != "completed" || cr.Lease != nil {
		t.Fatalf("settle with a malformed lease ask: %+v %v, want an acknowledged settle and no lease", cr, err)
	}
}

// Re-registration drops an answer addressed to the old registration whole:
// its chained lease belongs to a worker id that no longer reports, and comes
// back through expiry instead.
func TestReRegistrationDropsOldAnswers(t *testing.T) {
	a, err := NewAgent(AgentConfig{Coordinator: "http://unused"})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	a.adoptRegistration(RegisterResponse{WorkerID: "worker-0001", Seed: fleetSeed})
	old := slot{workerID: "worker-0001", epoch: a.epoch}
	started := a.adopt(ctx, old, 0, LeaseResponse{Leases: []WireLease{{LeaseID: 5, JobID: "job-0001", Candidate: "c"}}})
	if len(started) != 1 || len(a.running) != 1 {
		t.Fatalf("first registration: started %d, running %d", len(started), len(a.running))
	}
	aborted := false
	a.running[5] = func() { aborted = true }

	a.adoptRegistration(RegisterResponse{WorkerID: "worker-0002", Seed: fleetSeed})
	if !aborted {
		t.Fatal("re-registration did not abort the run held under the old id")
	}
	// The old slot's report comes back with a chained lease.
	started = a.adopt(ctx, old, 5, LeaseResponse{Leases: []WireLease{{LeaseID: 6, JobID: "job-0001", Candidate: "d"}}})
	if len(started) != 0 || len(a.running) != 0 {
		t.Errorf("old answer leaked into the new registration: started %d, running %d", len(started), len(a.running))
	}
}

// A worker that lies about a result is refused before anything settles: an
// accuracy outside [0, 1], a negative cost or a cost over 100× the
// candidate's estimate (a finite 1e308) answers 400 "bad_request",
// writes no model record or observation (live or in the WAL) and grants no
// embedded lease. The lease stays outstanding, expires on its TTL, and the
// candidate then trains exactly once, with an honest result.
func TestOutOfRangeResultIsRefused(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "data")
	sc := newTestScheduler(t)
	log, _, err := sc.Recover(dir, storage.LogOptions{})
	if err != nil {
		t.Fatal(err)
	}
	job, err := sc.Submit("a", tsProgram)
	if err != nil {
		t.Fatal(err)
	}
	clk := &fakeClock{now: time.Unix(1000, 0)}
	coord := NewCoordinator(sc, CoordinatorConfig{Seed: fleetSeed, LeaseTTL: time.Second})
	coord.setClock(clk.Now)
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()
	pc := newProtoClient(srv.URL, nil)
	ctx := context.Background()
	reg, err := pc.register(ctx, RegisterRequest{Name: "liar", Devices: 3})
	if err != nil {
		t.Fatal(err)
	}

	lies := []CompleteRequest{
		{Accuracy: 1e300, Cost: 1},
		{Accuracy: -0.25, Cost: 1, Lease: &LeaseRequest{Max: 1}},
		{Accuracy: 0.5, Cost: -3},
		{Accuracy: 0.5, Cost: 1e308},
	}
	for _, lie := range lies {
		lr, err := pc.lease(ctx, LeaseRequest{WorkerID: reg.WorkerID, Max: 1})
		if err != nil || len(lr.Leases) != 1 {
			t.Fatalf("lease: %+v %v", lr, err)
		}
		lie.WorkerID, lie.LeaseID = reg.WorkerID, lr.Leases[0].LeaseID
		if _, err := pc.complete(ctx, lie); !IsCode(err, CodeBadRequest) {
			t.Errorf("report accuracy %g cost %g: got %v, want 400 %s", lie.Accuracy, lie.Cost, err, CodeBadRequest)
		}
	}
	st, err := sc.Status(job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Models) != 0 || st.CostUsed != 0 {
		t.Fatalf("refused reports were recorded: models %+v, cost %g", st.Models, st.CostUsed)
	}
	if n := sc.InFlight(); n != len(lies) {
		t.Fatalf("%d leases in flight, want the %d refused ones (and no embedded grant)", n, len(lies))
	}
	clk.tick(2 * time.Second)
	if n := coord.Sweep(); n != len(lies) {
		t.Fatalf("sweep expired %d leases, want %d", n, len(lies))
	}

	// An honest worker drains the job: every candidate trains once.
	agentCtx, stop := context.WithCancel(ctx)
	agent, err := NewAgent(AgentConfig{Coordinator: srv.URL, Name: "honest", PollInterval: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); _ = agent.Run(agentCtx) }()
	eventually(t, "the honest worker to drain the job", func() bool {
		return fleetTrainedCounts(t, sc, []string{job.ID})[job.ID] == 4
	})
	stop()
	wg.Wait()
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}

	if n := len(walEvents(t, dir, storage.EventLeaseExpired)); n != len(lies) {
		t.Errorf("WAL holds %d lease expiries, want %d", n, len(lies))
	}
	seen := map[string]bool{}
	for _, ev := range walEvents(t, dir, storage.EventModelRecorded) {
		if ev.Job != job.ID {
			continue
		}
		m := ev.Model
		if seen[m.Name] {
			t.Errorf("candidate %s trained twice", m.Name)
		}
		seen[m.Name] = true
		if m.Accuracy < 0 || m.Accuracy > 1 || m.Cost < 0 || m.Cost > 1e300 {
			t.Errorf("WAL model record %+v carries an out-of-range result", m)
		}
	}
	if len(seen) != 4 {
		t.Errorf("WAL holds %d distinct models, want 4", len(seen))
	}
}
