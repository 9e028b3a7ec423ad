package fleet

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/admission"
	"repro/internal/server"
	"repro/internal/storage"
)

// A non-positive LeaseRequest.Max is a protocol error: 400 with code
// "bad_request" on the wire, and never sent by the Go client (it defaults
// Max to 1).
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
	body := fmt.Sprintf(`{"worker_id":%q,"max":0}`, reg.WorkerID)
	resp, err := http.Post(srv.URL+"/fleet/lease", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var envelope server.ErrorBody
	if err := decodeReply("/fleet/lease", resp, &envelope); err == nil {
		t.Fatal("max=0 lease accepted")
	} else {
		pe, ok := err.(*ProtocolError)
		if !ok || pe.Status != http.StatusBadRequest || pe.Code != CodeBadRequest {
			t.Errorf("max=0 lease: got %v, want 400 %s", err, CodeBadRequest)
		}
	}
	// The Go client never sends a non-positive Max: it defaults to 1.
	if _, err := pc.lease(ctx, LeaseRequest{WorkerID: reg.WorkerID}); err != nil {
		t.Errorf("client poll with zero Max: %v (should default to 1)", err)
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

// bestOpenArm returns the proposable (untried, unleased) arm with the
// highest wire UCB.
func bestOpenArm(t *testing.T, p JobPosterior) int {
	t.Helper()
	closed := make(map[int]bool)
	for _, k := range p.Tried {
		closed[k] = true
	}
	for _, k := range p.Leased {
		closed[k] = true
	}
	best, bestUCB := -1, math.Inf(-1)
	for k, u := range p.UCB {
		if !closed[k] && u > bestUCB {
			best, bestUCB = k, u
		}
	}
	if best < 0 {
		t.Fatalf("no open arm in posterior %+v", p)
	}
	return best
}

// The speculative protocol over the wire: a plain poll ships the posterior
// surface, a settle's answer carries the change it caused, a fresh-epoch
// proposal grants on the fast path, and a stale replay falls back to the
// pick path without double-leasing the arm.
func TestSpeculativeFastPathOverWire(t *testing.T) {
	sc := newTestScheduler(t)
	if _, err := sc.Submit("a", tsProgram); err != nil {
		t.Fatal(err)
	}
	coord := NewCoordinator(sc, CoordinatorConfig{Seed: fleetSeed})
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()
	pc := newProtoClient(srv.URL, nil)
	ctx := context.Background()
	reg, err := pc.register(ctx, RegisterRequest{Name: "w", Devices: 4})
	if err != nil {
		t.Fatal(err)
	}

	// Plain poll at cursor 0: a pick-path grant, plus the job's posterior
	// delta whose Leased set already covers the lease granted by this very
	// response — named by the same arm index the wire lease carries.
	lr, err := pc.lease(ctx, LeaseRequest{WorkerID: reg.WorkerID, Max: 1})
	if err != nil || len(lr.Leases) != 1 {
		t.Fatalf("plain poll: %+v %v", lr, err)
	}
	if len(lr.Posteriors) != 1 || lr.PosteriorVersion == 0 {
		t.Fatalf("plain poll shipped %d posteriors at version %d, want 1 at a non-zero version",
			len(lr.Posteriors), lr.PosteriorVersion)
	}
	p := lr.Posteriors[0]
	if p.Done || len(p.UCB) != 4 {
		t.Fatalf("posterior %+v, want 4-arm live surface", p)
	}
	if len(p.Leased) != 1 || p.Leased[0] != lr.Leases[0].Arm {
		t.Fatalf("posterior Leased %v does not cover the just-granted arm %d", p.Leased, lr.Leases[0].Arm)
	}
	info, err := coord.JobInfo(p.JobID)
	if err != nil {
		t.Fatal(err)
	}
	if lr.Leases[0].Candidate != info.Candidates[lr.Leases[0].Arm] {
		t.Errorf("wire lease arm %d is %q, the lease names %q",
			lr.Leases[0].Arm, info.Candidates[lr.Leases[0].Arm], lr.Leases[0].Candidate)
	}

	// Settling bumps the job's epoch; a plain report's answer carries the
	// change feed since its cursor, so the next proposal is not
	// automatically stale.
	cr, err := pc.complete(ctx, CompleteRequest{WorkerID: reg.WorkerID, LeaseID: lr.Leases[0].LeaseID,
		Accuracy: 0.6, Cost: 1, PosteriorVersion: lr.PosteriorVersion})
	if err != nil {
		t.Fatal(err)
	}
	if len(cr.Posteriors) != 1 || cr.PosteriorVersion <= lr.PosteriorVersion || cr.Lease != nil {
		t.Fatalf("plain report answered %+v, want the settled job's surface at a newer version and no lease", cr)
	}
	p2 := cr.Posteriors[0]
	if p2.Epoch == p.Epoch {
		t.Errorf("settle did not move the epoch (still %d)", p.Epoch)
	}
	if len(p2.Tried) != 1 {
		t.Errorf("settled posterior Tried %v, want the observed arm", p2.Tried)
	}

	// A fresh-epoch proposal grants on the fast path: the granted candidate
	// is exactly the proposed arm, and the selection stats record it.
	arm := bestOpenArm(t, p2)
	propose := LeaseRequest{
		WorkerID: reg.WorkerID, Max: 1, PosteriorVersion: cr.PosteriorVersion,
		Proposals: []LeaseProposal{{JobID: p2.JobID, Arm: arm, Epoch: p2.Epoch}},
	}
	lr2, err := pc.lease(ctx, propose)
	if err != nil || len(lr2.Leases) != 1 {
		t.Fatalf("speculative poll: %+v %v", lr2, err)
	}
	if lr2.Leases[0].Arm != arm || lr2.Leases[0].Candidate != info.Candidates[arm] {
		t.Errorf("speculative grant gave arm %d (%q), proposed arm %d is %q",
			lr2.Leases[0].Arm, lr2.Leases[0].Candidate, arm, info.Candidates[arm])
	}
	if got := sc.SelectionStats().SpeculativeGrants; got != 1 {
		t.Errorf("SpeculativeGrants %d, want 1", got)
	}
	// Lease churn is not a bandit mutation: the version is unchanged, so no
	// delta rides the response.
	if len(lr2.Posteriors) != 0 || lr2.PosteriorVersion != cr.PosteriorVersion {
		t.Errorf("unchanged version %d shipped deltas %+v at %d", cr.PosteriorVersion, lr2.Posteriors, lr2.PosteriorVersion)
	}

	// Replaying the proposal is stale (the arm is leased now): the poll
	// falls back to the pick path and must not re-grant the same arm.
	lr3, err := pc.lease(ctx, propose)
	if err != nil || len(lr3.Leases) != 1 {
		t.Fatalf("stale poll: %+v %v", lr3, err)
	}
	if lr3.Leases[0].Arm == arm {
		t.Errorf("stale proposal re-granted the leased arm %d", arm)
	}
	if got := sc.SelectionStats().SpeculativeGrants; got != 1 {
		t.Errorf("stale proposal counted as speculative grant (%d)", got)
	}

	// An out-of-range arm is malformed, not stale: rejected, pick path
	// still serves the poll.
	lr4, err := pc.lease(ctx, LeaseRequest{
		WorkerID: reg.WorkerID, Max: 1,
		Proposals: []LeaseProposal{{JobID: p2.JobID, Arm: 99, Epoch: p2.Epoch}},
	})
	if err != nil || len(lr4.Leases) != 1 {
		t.Fatalf("malformed-proposal poll: %+v %v", lr4, err)
	}
}

// Settle-and-lease over the wire: a report that embeds a lease request is
// settled first and then served by the same Lease call a poll reaches — the
// grant and the change feed ride the embedded answer, and the feed already
// shows the observation that just landed. A report that does not settle
// grants nothing.
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
		Lease: &LeaseRequest{WorkerID: "someone-else", Max: 1, PosteriorVersion: lr.PosteriorVersion}}
	cr, err := pc.complete(ctx, chained)
	if err != nil {
		t.Fatal(err)
	}
	if cr.Settled != "completed" || cr.Lease == nil || len(cr.Lease.Leases) != 1 {
		t.Fatalf("settle-and-lease answered %+v, want a settle and one chained lease", cr)
	}
	if len(cr.Posteriors) != 0 || cr.PosteriorVersion != 0 {
		t.Errorf("settle-and-lease duplicated the feed outside the lease answer: %+v", cr)
	}
	next := cr.Lease.Leases[0]
	if next.LeaseID == first.LeaseID || next.Arm == first.Arm {
		t.Errorf("chained lease %+v repeats the settled one %+v", next, first)
	}
	if len(cr.Lease.Posteriors) != 1 || cr.Lease.PosteriorVersion <= lr.PosteriorVersion {
		t.Fatalf("chained answer's feed %+v at version %d, want the settled job at a newer version",
			cr.Lease.Posteriors, cr.Lease.PosteriorVersion)
	}
	p := cr.Lease.Posteriors[0]
	if len(p.Tried) != 1 || p.Tried[0] != first.Arm || len(p.Leased) != 1 || p.Leased[0] != next.Arm {
		t.Errorf("chained feed %+v: want arm %d tried (the pick saw the settle) and arm %d leased", p, first.Arm, next.Arm)
	}
	if st := coord.FleetStatus(); st.RemoteLeases != 1 || st.Workers[0].InFlight != 1 {
		t.Errorf("after the chain: %d remote leases, worker in-flight %d; want 1 and 1", st.RemoteLeases, st.Workers[0].InFlight)
	}

	// Replaying the report loses the settle race: 409, and the embedded
	// lease request grants nothing.
	if _, err := pc.complete(ctx, chained); err == nil {
		t.Fatal("replayed settle-and-lease accepted")
	} else if pe, ok := err.(*ProtocolError); !ok || pe.Status != http.StatusConflict {
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

// With speculation disabled the coordinator ignores proposals (no fast
// path, no posterior shipping) and serves the plain protocol.
func TestSpeculativeDisabledFallsBackToPick(t *testing.T) {
	sc := newTestScheduler(t)
	job, err := sc.Submit("a", tsProgram)
	if err != nil {
		t.Fatal(err)
	}
	coord := NewCoordinator(sc, CoordinatorConfig{Seed: fleetSeed, DisableSpeculative: true})
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()
	pc := newProtoClient(srv.URL, nil)
	ctx := context.Background()
	reg, err := pc.register(ctx, RegisterRequest{Name: "w", Devices: 1})
	if err != nil {
		t.Fatal(err)
	}
	lr, err := pc.lease(ctx, LeaseRequest{
		WorkerID: reg.WorkerID, Max: 1,
		Proposals: []LeaseProposal{{JobID: job.ID, Arm: 0, Epoch: 0}},
	})
	if err != nil || len(lr.Leases) != 1 {
		t.Fatalf("disabled poll: %+v %v", lr, err)
	}
	if len(lr.Posteriors) != 0 || lr.PosteriorVersion != 0 {
		t.Errorf("disabled coordinator shipped posteriors %+v at version %d", lr.Posteriors, lr.PosteriorVersion)
	}
	if got := sc.SelectionStats().SpeculativeGrants; got != 0 {
		t.Errorf("disabled coordinator made %d speculative grants", got)
	}
}

// chaosPlan is one randomized interleaving scenario, derived from the seed
// before either run so the speculative and baseline runs face the same
// structure (the timing interleavings still differ freely).
type chaosPlan struct {
	jobs        int      // initial job count
	tenants     []string // tenant per initial job (admission class)
	maxInFlight int      // 0 = uncapped; small = preemption pressure
	devices     int      // per healthy worker
	killWorker  bool     // kill a worker mid-lease (expiry path)
	lateJob     bool     // submit a guaranteed job mid-run (preemption path)
}

// jobOutcome is a job's schedule-independent result: trained models with
// the schedule-dependent Round zeroed and sorted by name, plus the best
// model and total cost.
type jobOutcome struct {
	Trained int
	Models  []storage.ModelRecord
	Best    string
	BestAcc float64
	Cost    float64
}

// jobOutcomes collects every job's schedule-independent result.
func jobOutcomes(t *testing.T, sc *server.Scheduler, ids []string) map[string]jobOutcome {
	t.Helper()
	out := make(map[string]jobOutcome, len(ids))
	for _, id := range ids {
		st, err := sc.Status(id)
		if err != nil {
			t.Fatal(err)
		}
		o := jobOutcome{Trained: st.Trained, Cost: st.CostUsed}
		for _, m := range st.Models {
			m.Round = 0 // scheduling order is the one thing allowed to differ
			o.Models = append(o.Models, m)
		}
		sort.Slice(o.Models, func(i, j int) bool { return o.Models[i].Name < o.Models[j].Name })
		if st.Best != nil {
			o.Best, o.BestAcc = st.Best.Name, st.Best.Accuracy
		}
		out[id] = o
	}
	return out
}

func runSpeculativeChaos(t *testing.T, plan chaosPlan, disable bool) (map[string]jobOutcome, int, uint64) {
	t.Helper()
	sc := newTestScheduler(t)
	ctrl, err := admission.NewController(admission.Config{Tenants: map[string]admission.Quota{
		"alice": {Class: admission.ClassGuaranteed},
		"carol": {Class: admission.ClassBestEffort},
	}})
	if err != nil {
		t.Fatal(err)
	}
	sc.SetAdmission(ctrl)
	var ids []string
	for i := 0; i < plan.jobs; i++ {
		j, err := sc.Submit(plan.tenants[i], tsProgram)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, j.ID)
	}
	coord := NewCoordinator(sc, CoordinatorConfig{
		LeaseTTL:           150 * time.Millisecond,
		HeartbeatInterval:  40 * time.Millisecond,
		SweepInterval:      20 * time.Millisecond,
		DeadAfter:          250 * time.Millisecond,
		PollInterval:       5 * time.Millisecond,
		Seed:               fleetSeed,
		MaxInFlight:        plan.maxInFlight,
		DisableSpeculative: disable,
	})
	coord.Start()
	defer coord.Stop()
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()

	var wg sync.WaitGroup
	if plan.killWorker {
		// The doomed worker blocks on its first lease — possibly a
		// speculative grant — then dies silently; the lease must expire and
		// re-queue exactly once.
		doomed := newBlockingExecutor()
		doomedAgent, err := NewAgent(AgentConfig{
			Coordinator: srv.URL, Name: "doomed", Devices: 1,
			Executor: doomed, SkipLeaveOnExit: true, DisableSpeculative: disable,
			PollInterval: 5 * time.Millisecond, HeartbeatInterval: 40 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		doomedCtx, kill := context.WithCancel(context.Background())
		wg.Add(1)
		go func() { defer wg.Done(); _ = doomedAgent.Run(doomedCtx) }()
		select {
		case <-doomed.started:
		case <-time.After(5 * time.Second):
			t.Fatal("doomed worker never received a lease")
		}
		kill()
	}

	healthyCtx, stopHealthy := context.WithCancel(context.Background())
	defer stopHealthy()
	for i := 0; i < 2; i++ {
		agent, err := NewAgent(AgentConfig{
			Coordinator: srv.URL, Name: fmt.Sprintf("healthy-%d", i), Devices: plan.devices,
			Executor: NewSimExecutor(fleetSeed), DisableSpeculative: disable,
			PollInterval: 5 * time.Millisecond, HeartbeatInterval: 40 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() { defer wg.Done(); _ = agent.Run(healthyCtx) }()
	}

	if plan.lateJob {
		// Guaranteed work lands mid-run; with a saturated in-flight cap this
		// preempts an outstanding best-effort lease.
		time.Sleep(30 * time.Millisecond)
		j, err := sc.Submit("alice", tsProgram)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, j.ID)
	}

	deadline := time.Now().Add(20 * time.Second)
	for {
		done := 0
		for _, id := range ids {
			st, err := sc.Status(id)
			if err != nil {
				t.Fatal(err)
			}
			if st.Trained == st.NumCandidates {
				done++
			}
		}
		if done == len(ids) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("fleet did not converge (speculation disabled=%v): %+v",
				disable, fleetTrainedCounts(t, sc, ids))
		}
		time.Sleep(5 * time.Millisecond)
	}
	stopHealthy()
	wg.Wait()

	return jobOutcomes(t, sc, ids), sc.Rounds(), sc.SelectionStats().SpeculativeGrants
}

// The speculative protocol must be invisible in the results: across
// randomized interleavings — lease expiry via a killed worker, priority
// preemption under a saturated cap, workers racing on stale posteriors —
// a fleet with speculation on converges to bit-identical models, best
// picks and round counts as the same fleet with speculation off.
func TestRandomizedInvariantsSpeculative(t *testing.T) {
	seeds := 8
	if testing.Short() {
		seeds = 3
	}
	if s := os.Getenv("INVARIANT_SEEDS"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			seeds = n
		}
	}
	var specGrants uint64
	for seed := 0; seed < seeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(seed)))
			plan := chaosPlan{
				jobs:        2 + rng.Intn(2),
				maxInFlight: []int{0, 3}[rng.Intn(2)],
				devices:     1 + rng.Intn(2),
				killWorker:  rng.Intn(3) > 0,
				lateJob:     rng.Intn(2) == 0,
			}
			for i := 0; i < plan.jobs; i++ {
				plan.tenants = append(plan.tenants, []string{"alice", "carol"}[rng.Intn(2)])
			}
			on, onRounds, grants := runSpeculativeChaos(t, plan, false)
			specGrants += grants
			off, offRounds, _ := runSpeculativeChaos(t, plan, true)
			if onRounds != offRounds {
				t.Errorf("rounds diverge: speculative %d, baseline %d", onRounds, offRounds)
			}
			if len(on) != len(off) {
				t.Fatalf("job sets diverge: %d vs %d", len(on), len(off))
			}
			for id, a := range on {
				b, ok := off[id]
				if !ok {
					t.Errorf("job %s missing from baseline run", id)
					continue
				}
				if a.Trained != b.Trained || a.Best != b.Best || a.BestAcc != b.BestAcc {
					t.Errorf("job %s diverges: speculative %+v, baseline %+v", id, a, b)
				}
				// Cost accumulates in observation order; identical addends may
				// round differently, so compare within float slack.
				if math.Abs(a.Cost-b.Cost) > 1e-9 {
					t.Errorf("job %s cost diverges: %g vs %g", id, a.Cost, b.Cost)
				}
				if len(a.Models) != len(b.Models) {
					t.Errorf("job %s model counts diverge: %d vs %d", id, len(a.Models), len(b.Models))
					continue
				}
				for i := range a.Models {
					if a.Models[i] != b.Models[i] {
						t.Errorf("job %s model %d diverges: %+v vs %+v", id, i, a.Models[i], b.Models[i])
					}
				}
			}
		})
	}
	if specGrants == 0 {
		t.Error("no speculative grant happened across any seed — the fast path never exercised")
	}
}
