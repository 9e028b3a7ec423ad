package server_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/admission"
	"repro/internal/cluster"
	"repro/internal/server"
	"repro/internal/storage"
)

// newAdmittedScheduler builds a scheduler with an admission controller on
// a deterministic clock.
func newAdmittedScheduler(t testing.TB, cfg admission.Config) (*server.Scheduler, *admission.Controller, *time.Time) {
	t.Helper()
	ctrl, err := admission.NewController(cfg)
	if err != nil {
		t.Fatal(err)
	}
	now := time.Unix(5000, 0)
	ctrl.SetClock(func() time.Time { return now })
	sc := server.NewScheduler(server.NewSimTrainer(cluster.NewPool(8, 0.9), 42), ctrl, "http://test:9000")
	return sc, ctrl, &now
}

func TestSubmitGatedByJobCapAndRate(t *testing.T) {
	sc, _, now := newAdmittedScheduler(t, admission.Config{Tenants: map[string]admission.Quota{
		"alice": {MaxJobs: 1, RatePerSec: 100, Burst: 100},
	}})
	if _, err := sc.Submit("alice", tsProgram); err != nil {
		t.Fatal(err)
	}
	if _, err := sc.Submit("alice", tsProgram); !errors.Is(err, admission.ErrQuotaExceeded) {
		t.Fatalf("second concurrent job admitted under cap 1: %v", err)
	}
	// Other tenants are unaffected.
	if _, err := sc.Submit("bob", tsProgram); err != nil {
		t.Fatal(err)
	}
	// Draining alice's job frees the slot.
	if _, err := sc.RunRounds(1 << 20); err != nil {
		t.Fatal(err)
	}
	*now = now.Add(time.Second)
	if _, err := sc.Submit("alice", tsProgram); err != nil {
		t.Fatalf("slot not freed after drain: %v", err)
	}
}

// A failed submission (bad program) must refund the tenant's job slot.
func TestSubmitRefundsSlotOnBuildFailure(t *testing.T) {
	sc, _, _ := newAdmittedScheduler(t, admission.Config{Tenants: map[string]admission.Quota{
		"alice": {MaxJobs: 1},
	}})
	if _, err := sc.Submit("alice", "{not a program}"); err == nil {
		t.Fatal("invalid program accepted")
	}
	if _, err := sc.Submit("alice", tsProgram); err != nil {
		t.Fatalf("failed submission leaked the job slot: %v", err)
	}
}

func TestFeedRateLimited(t *testing.T) {
	sc, _, now := newAdmittedScheduler(t, admission.Config{Tenants: map[string]admission.Quota{
		"alice": {RatePerSec: 1, Burst: 3},
	}})
	job, err := sc.Submit("alice", tsProgram) // consumes one token
	if err != nil {
		t.Fatal(err)
	}
	in, out := []float64{1, 2, 3, 4}, []float64{0, 1}
	for i := 0; i < 2; i++ {
		if _, err := sc.Feed(job.ID, in, out); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := sc.Feed(job.ID, in, out); !errors.Is(err, admission.ErrQuotaExceeded) {
		t.Fatalf("over-rate feed admitted: %v", err)
	}
	*now = now.Add(time.Second)
	if _, err := sc.Feed(job.ID, in, out); err != nil {
		t.Fatalf("token not refilled: %v", err)
	}
}

// Budget exhaustion drains the tenant's jobs gracefully: remaining arms
// retired, scheduling moves on, the drain is WAL-logged, and a recovered
// process agrees.
func TestBudgetExhaustionDrainsAndRecovers(t *testing.T) {
	dir := t.TempDir()
	open := func() *server.Scheduler {
		ctrl, err := admission.NewController(admission.Config{Tenants: map[string]admission.Quota{
			"carol": {Class: admission.ClassBestEffort, Budget: 1e-9}, // exhausts on the first completed run
		}})
		if err != nil {
			t.Fatal(err)
		}
		sc := server.NewScheduler(server.NewSimTrainer(cluster.NewPool(8, 0.9), 42), ctrl, "http://test:9000")
		if _, _, err := sc.Recover(dir, storage.LogOptions{}); err != nil {
			t.Fatal(err)
		}
		return sc
	}

	sc := open()
	carol, err := sc.Submit("carol", tsProgram)
	if err != nil {
		t.Fatal(err)
	}
	alice, err := sc.Submit("alice", tsProgram)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sc.RunRounds(1 << 20); err != nil {
		t.Fatal(err)
	}
	st, err := sc.Status(carol.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !st.BudgetExhausted {
		t.Fatal("carol's job not marked budget-exhausted")
	}
	if st.Trained != 1 {
		t.Errorf("carol trained %d candidates, want exactly 1 before the budget bit", st.Trained)
	}
	if st.CostUsed <= 0 {
		t.Errorf("cost used %g", st.CostUsed)
	}
	ast, err := sc.Status(alice.ID)
	if err != nil {
		t.Fatal(err)
	}
	if ast.Trained != ast.NumCandidates {
		t.Errorf("alice trained %d of %d — budget drain must not block other tenants",
			ast.Trained, ast.NumCandidates)
	}

	// Crash (no Close/Compact) and recover: the drained job must stay
	// drained, with its one recorded model intact.
	sc2 := open()
	st2, err := sc2.Status(carol.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !st2.BudgetExhausted || st2.Trained != 1 {
		t.Fatalf("recovery disagrees: %+v", st2)
	}
	ran, err := sc2.RunRounds(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	if ran != 0 {
		t.Errorf("recovered process trained %d more candidates for a drained tenant set", ran)
	}
}

// A budget-exhausted tenant cannot buy more training by submitting fresh
// jobs: Submit bounces off the budget with the same 429-mapped error.
func TestSubmitRejectedAfterBudgetExhaustion(t *testing.T) {
	sc, _, _ := newAdmittedScheduler(t, admission.Config{Tenants: map[string]admission.Quota{
		"carol": {Class: admission.ClassBestEffort, Budget: 1e-9},
	}})
	if _, err := sc.Submit("carol", tsProgram); err != nil {
		t.Fatal(err)
	}
	if _, err := sc.RunRounds(1 << 20); err != nil { // first completion exhausts the budget
		t.Fatal(err)
	}
	if _, err := sc.Submit("carol", tsProgram); !errors.Is(err, admission.ErrQuotaExceeded) {
		t.Fatalf("exhausted tenant admitted a new job: %v", err)
	}
	// Other tenants are untouched.
	if _, err := sc.Submit("bob", tsProgram); err != nil {
		t.Fatal(err)
	}
}

// Preemption: a guaranteed tenant with selectable work reclaims the newest
// best-effort worker lease; the candidate re-enters selection exactly
// once, the late settle bounces off ErrLeaseConflict, and the WAL records
// the preemption.
func TestPreemptForPriority(t *testing.T) {
	dir := t.TempDir()
	ctrl, err := admission.NewController(admission.Config{Tenants: map[string]admission.Quota{
		"alice": {Class: admission.ClassGuaranteed},
		"carol": {Class: admission.ClassBestEffort},
	}})
	if err != nil {
		t.Fatal(err)
	}
	sc := server.NewScheduler(server.NewSimTrainer(cluster.NewPool(8, 0.9), 42), ctrl, "http://test:9000")
	log, _, err := sc.Recover(dir, storage.LogOptions{})
	if err != nil {
		t.Fatal(err)
	}

	carol, err := sc.Submit("carol", tsProgram)
	if err != nil {
		t.Fatal(err)
	}
	// Saturate the pool with carol's work on a remote worker.
	leases, err := sc.PickWork(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(leases) != 2 {
		t.Fatalf("picked %d leases", len(leases))
	}
	for _, l := range leases {
		if err := sc.AssignLease(l, "worker-0001", time.Time{}); err != nil {
			t.Fatal(err)
		}
	}
	// No guaranteed work yet: nothing to preempt for.
	if v, err := sc.PreemptForPriority(); err != nil || v != nil {
		t.Fatalf("preempted %v without guaranteed demand (err %v)", v, err)
	}

	// A guaranteed job arrives; preemption reclaims the newest lease.
	if _, err := sc.Submit("alice", tsProgram); err != nil {
		t.Fatal(err)
	}
	victim, err := sc.PreemptForPriority()
	if err != nil {
		t.Fatal(err)
	}
	if victim == nil {
		t.Fatal("no lease preempted despite guaranteed demand")
	}
	if victim.JobID != carol.ID {
		t.Errorf("preempted %s, want a best-effort lease of %s", victim.JobID, carol.ID)
	}
	if victim.ID != leases[1].ID {
		t.Errorf("preempted lease %d, want the newest grant %d", victim.ID, leases[1].ID)
	}
	if sc.InFlight() != 1 {
		t.Errorf("in-flight %d after preemption, want 1", sc.InFlight())
	}
	// The late report bounces off the expiry-path conflict.
	if err := sc.Complete(victim, 0.5, 1); !errors.Is(err, server.ErrLeaseConflict) {
		t.Fatalf("late complete after preemption: %v", err)
	}
	// The candidate re-enters selection exactly once: picking to the same
	// capacity grants exactly one lease and it is the preempted arm or a
	// sibling — crucially the total per-arm grant count never exceeds one
	// outstanding lease.
	again, err := sc.PickWork(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(again) != 1 {
		t.Fatalf("re-picked %d leases, want 1 (one slot was freed)", len(again))
	}

	// The WAL has the preemption on record, attributed to alice's job.
	if err := sc.Release(again[0]); err != nil {
		t.Fatal(err)
	}
	_ = log
	sc2pool := cluster.NewPool(8, 0.9)
	sc2 := server.NewScheduler(server.NewSimTrainer(sc2pool, 42), nil, "http://test:9000")
	log2, _, err := sc2.Recover(dir, storage.LogOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer log2.Close()
	preempted := walEvents(t, dir, storage.EventLeasePreempted)
	if len(preempted) != 1 {
		t.Fatalf("recovered %d preemption records, want 1", len(preempted))
	}
	p := preempted[0]
	if p.Job != carol.ID || p.Worker != "worker-0001" || p.By == "" {
		t.Errorf("preemption record %+v", p)
	}
}

// walEvents reads the events of one type a data directory holds, the
// checkpoint's first, the way recovery streams them.
func walEvents(t *testing.T, dir string, typ storage.EventType) []storage.Event {
	t.Helper()
	var evs []storage.Event
	log, _, err := storage.Open(dir, storage.LogOptions{}, func(ev storage.Event) error {
		if ev.Type == typ {
			evs = append(evs, ev)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	return evs
}

// Standard tenants neither preempt nor get preempted.
func TestNoPreemptionWithoutGuaranteedDemand(t *testing.T) {
	sc, _, _ := newAdmittedScheduler(t, admission.Config{Tenants: map[string]admission.Quota{
		"bob":   {Class: admission.ClassStandard},
		"carol": {Class: admission.ClassBestEffort},
	}})
	if _, err := sc.Submit("carol", tsProgram); err != nil {
		t.Fatal(err)
	}
	leases, err := sc.PickWork(1)
	if err != nil || len(leases) != 1 {
		t.Fatalf("pick: %v (%d leases)", err, len(leases))
	}
	if err := sc.AssignLease(leases[0], "worker-0001", time.Time{}); err != nil {
		t.Fatal(err)
	}
	if _, err := sc.Submit("bob", tsProgram); err != nil {
		t.Fatal(err)
	}
	if v, err := sc.PreemptForPriority(); err != nil || v != nil {
		t.Fatalf("standard tenant preempted a lease: %v (err %v)", v, err)
	}
}

// The HTTP surface: over-quota Submit/Feed answer 429 with the structured
// quota_exceeded envelope; /admin/quotas reads and writes live state.
func TestQuotaHTTPSurface(t *testing.T) {
	sc, ctrl, _ := newAdmittedScheduler(t, admission.Config{
		DefaultClass: admission.ClassStandard,
		Tenants: map[string]admission.Quota{
			"alice": {Class: admission.ClassGuaranteed, RatePerSec: 1, Burst: 1, MaxJobs: 1},
		},
	})
	srv := httptest.NewServer(server.NewAPI(sc).Handler())
	defer srv.Close()

	post := func(path string, body any) *http.Response {
		t.Helper()
		data, _ := json.Marshal(body)
		resp, err := http.Post(srv.URL+path, "application/json", bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	// First submission passes (burst 1)…
	resp := post("/jobs", server.SubmitRequest{Name: "alice", Program: tsProgram})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit status %d", resp.StatusCode)
	}
	var sub server.SubmitResponse
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	// …the second bounces off the rate limit with the structured 429.
	resp = post("/jobs", server.SubmitRequest{Name: "alice", Program: tsProgram})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota submit status %d, want 429", resp.StatusCode)
	}
	var envelope server.ErrorBody
	if err := json.NewDecoder(resp.Body).Decode(&envelope); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if envelope.Code != server.CodeQuotaExceeded || envelope.Error == "" {
		t.Fatalf("429 envelope %+v, want code %q", envelope, server.CodeQuotaExceeded)
	}

	// Over-quota feed: same envelope.
	resp = post("/jobs/"+sub.ID+"/feed", server.FeedRequest{
		Inputs:  [][]float64{{1, 2, 3, 4}},
		Outputs: [][]float64{{0, 1}},
	})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota feed status %d, want 429", resp.StatusCode)
	}
	envelope = server.ErrorBody{}
	if err := json.NewDecoder(resp.Body).Decode(&envelope); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if envelope.Code != server.CodeQuotaExceeded {
		t.Fatalf("feed 429 envelope %+v", envelope)
	}

	// GET /admin/quotas reflects the declared quota and live usage.
	getResp, err := http.Get(srv.URL + "/admin/quotas")
	if err != nil {
		t.Fatal(err)
	}
	var quotas server.QuotasResponse
	if err := json.NewDecoder(getResp.Body).Decode(&quotas); err != nil {
		t.Fatal(err)
	}
	getResp.Body.Close()
	if quotas.DefaultClass != admission.ClassStandard {
		t.Errorf("default class %q", quotas.DefaultClass)
	}
	var alice *server.QuotaStatus
	for i := range quotas.Tenants {
		if quotas.Tenants[i].Tenant == "alice" {
			alice = &quotas.Tenants[i]
		}
	}
	if alice == nil || alice.Class != admission.ClassGuaranteed || alice.ActiveJobs != 1 {
		t.Fatalf("alice quota row %+v", alice)
	}

	// POST /admin/quotas updates live state.
	resp = post("/admin/quotas", server.SetQuotaRequest{
		Tenant: "dave",
		Quota:  admission.Quota{Class: admission.ClassBestEffort, Budget: 7},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("set quota status %d", resp.StatusCode)
	}
	resp.Body.Close()
	if got := ctrl.Budget("dave"); got != 7 {
		t.Errorf("live budget %g after POST", got)
	}
	resp = post("/admin/quotas", server.SetQuotaRequest{Tenant: "", Quota: admission.Quota{}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty tenant accepted: %d", resp.StatusCode)
	}
	resp.Body.Close()

	// Without a controller the endpoint answers 409, like the other
	// optional admin surfaces.
	bare := httptest.NewServer(server.NewAPI(newScheduler(t)).Handler())
	defer bare.Close()
	getResp, err = http.Get(bare.URL + "/admin/quotas")
	if err != nil {
		t.Fatal(err)
	}
	getResp.Body.Close()
	if getResp.StatusCode != http.StatusConflict {
		t.Errorf("quotas without controller: %d, want 409", getResp.StatusCode)
	}
}

// Class-weighted fair sharing steers the serialized scheduling loop: a
// guaranteed tenant finishes its candidate list well before a best-effort
// tenant of the same size.
func TestClassWeightedSchedulingOrder(t *testing.T) {
	sc, _, _ := newAdmittedScheduler(t, admission.Config{Tenants: map[string]admission.Quota{
		"alice": {Class: admission.ClassGuaranteed},
		"carol": {Class: admission.ClassBestEffort},
	}})
	alice, err := sc.Submit("alice", tsProgram)
	if err != nil {
		t.Fatal(err)
	}
	carol, err := sc.Submit("carol", tsProgram)
	if err != nil {
		t.Fatal(err)
	}
	n := len(alice.Candidates)
	// After enough rounds to drain alice under a 4:1 split (n + n/4 + slack),
	// alice must be done while carol still has untried candidates.
	if _, err := sc.RunRounds(n + n/4 + 2); err != nil {
		t.Fatal(err)
	}
	ast, _ := sc.Status(alice.ID)
	cst, _ := sc.Status(carol.ID)
	if ast.Trained != ast.NumCandidates {
		t.Errorf("guaranteed tenant trained %d of %d", ast.Trained, ast.NumCandidates)
	}
	if cst.Trained >= cst.NumCandidates {
		t.Errorf("best-effort tenant finished (%d of %d) before the guaranteed tenant's rounds ran out",
			cst.Trained, cst.NumCandidates)
	}
	_ = carol
}
