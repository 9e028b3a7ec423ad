package fleet

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/admission"
	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/server"
	"repro/internal/storage"
	"repro/internal/templates"
)

const tsProgram = "{input: {[Tensor[4]], [next]}, output: {[Tensor[2]], []}}" // 4 candidates

const fleetSeed = 42

func newTestScheduler(t testing.TB) *server.Scheduler {
	t.Helper()
	return server.NewScheduler(server.NewSimTrainer(cluster.NewPool(8, 0.9), fleetSeed), nil, "")
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

// baselineModels runs the serialized single-process strategy to exhaustion
// and returns each job's (candidate → accuracy) map plus its best model.
func baselineModels(t *testing.T, jobs int) map[string]map[string]float64 {
	t.Helper()
	sc := newTestScheduler(t)
	ids := make([]string, 0, jobs)
	for i := 0; i < jobs; i++ {
		j, err := sc.Submit("base", tsProgram)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, j.ID)
	}
	if _, err := sc.RunRounds(1000); err != nil {
		t.Fatal(err)
	}
	out := make(map[string]map[string]float64, jobs)
	for _, id := range ids {
		st, err := sc.Status(id)
		if err != nil {
			t.Fatal(err)
		}
		accs := make(map[string]float64, len(st.Models))
		for _, m := range st.Models {
			accs[m.Name] = m.Accuracy
		}
		out[id] = accs
	}
	return out
}

// blockingExecutor holds every run until its context dies — the shape of a
// worker that hangs (or is killed) mid-training.
type blockingExecutor struct {
	once    sync.Once
	started chan struct{}
}

func newBlockingExecutor() *blockingExecutor {
	return &blockingExecutor{started: make(chan struct{})}
}

func (b *blockingExecutor) Execute(ctx context.Context, _ string, _ templates.Candidate) (float64, float64, error) {
	b.once.Do(func() { close(b.started) })
	<-ctx.Done()
	return 0, 0, ctx.Err()
}

// The acceptance end-to-end: a coordinator and three worker agents over
// real HTTP; one worker is killed while holding a lease. The lease must
// expire and re-queue (exactly once), the registry must show the worker
// dead, and the surviving workers must converge to the same models — with
// the same accuracies — as a single-process serialized run.
func TestFleetKillWorkerMidLeaseConvergesLikeSingleProcess(t *testing.T) {
	base := baselineModels(t, 2)

	sc := newTestScheduler(t)
	var jobIDs []string
	for i := 0; i < 2; i++ {
		j, err := sc.Submit("fleet", tsProgram)
		if err != nil {
			t.Fatal(err)
		}
		jobIDs = append(jobIDs, j.ID)
	}

	coord := NewCoordinator(sc, CoordinatorConfig{LeaseTTL: 150 * time.Millisecond, Seed: fleetSeed})
	coord.Start()
	defer coord.Stop()
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()

	// The doomed worker blocks on its first lease and then dies without a
	// goodbye: no leave, no more heartbeats.
	doomed := newBlockingExecutor()
	doomedAgent, err := NewAgent(AgentConfig{
		Coordinator: srv.URL, Name: "doomed", Devices: 1,
		Executor: doomed, SkipLeaveOnExit: true,
		PollInterval: 5 * time.Millisecond, HeartbeatInterval: 40 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	doomedCtx, killDoomed := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); _ = doomedAgent.Run(doomedCtx) }()
	select {
	case <-doomed.started:
	case <-time.After(5 * time.Second):
		t.Fatal("doomed worker never received a lease")
	}
	killDoomed() // mid-lease: its lease must now expire via TTL

	// Two healthy workers grind through the rest.
	healthyCtx, stopHealthy := context.WithCancel(context.Background())
	for i := 0; i < 2; i++ {
		agent, err := NewAgent(AgentConfig{
			Coordinator: srv.URL, Name: "healthy", Devices: 2,
			Executor:     NewSimExecutor(fleetSeed),
			PollInterval: 5 * time.Millisecond, HeartbeatInterval: 40 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() { defer wg.Done(); _ = agent.Run(healthyCtx) }()
	}

	deadline := time.Now().Add(15 * time.Second)
	for {
		done := 0
		for _, id := range jobIDs {
			st, err := sc.Status(id)
			if err != nil {
				t.Fatal(err)
			}
			if st.Trained == st.NumCandidates {
				done++
			}
		}
		if done == len(jobIDs) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("fleet did not converge: statuses %+v", fleetTrainedCounts(t, sc, jobIDs))
		}
		time.Sleep(10 * time.Millisecond)
	}
	stopHealthy()
	wg.Wait()

	// Every candidate trained exactly once across the whole fleet — the
	// expired lease re-entered selection exactly once, no double counting.
	if got, want := sc.Rounds(), 8; got != want {
		t.Errorf("completed %d rounds, want %d (each candidate exactly once)", got, want)
	}
	for _, id := range jobIDs {
		st, err := sc.Status(id)
		if err != nil {
			t.Fatal(err)
		}
		if len(st.Models) != len(base[id]) {
			t.Fatalf("job %s trained %d models, baseline %d", id, len(st.Models), len(base[id]))
		}
		for _, m := range st.Models {
			want, ok := base[id][m.Name]
			if !ok {
				t.Errorf("job %s trained %q, absent from baseline", id, m.Name)
			} else if m.Accuracy != want {
				t.Errorf("job %s model %q accuracy %g, baseline %g", id, m.Name, m.Accuracy, want)
			}
		}
	}

	st := coord.FleetStatus()
	if st.ExpiredLeases < 1 {
		t.Errorf("no lease expired despite the killed worker (status %+v)", st)
	}
	// Convergence can beat the dead horizon (2×LeaseTTL); give the sweeper
	// time to notice the silence.
	foundDead := false
	for deadline := time.Now().Add(5 * time.Second); !foundDead && time.Now().Before(deadline); {
		for _, w := range coord.FleetStatus().Workers {
			if w.Name == "doomed" && w.State == WorkerDead {
				foundDead = true
			}
		}
		if !foundDead {
			time.Sleep(10 * time.Millisecond)
		}
	}
	if !foundDead {
		t.Errorf("killed worker not marked dead in registry: %+v", coord.FleetStatus().Workers)
	}
}

func fleetTrainedCounts(t *testing.T, sc *server.Scheduler, ids []string) map[string]int {
	t.Helper()
	out := make(map[string]int, len(ids))
	for _, id := range ids {
		st, err := sc.Status(id)
		if err != nil {
			t.Fatal(err)
		}
		out[id] = st.Trained
	}
	return out
}

// Lease-expiry events must survive a crash/recovery cycle: the WAL records
// them, recovery replays them, and the recovered scheduler re-queues the
// expired candidate (its arm is simply untried).
func TestLeaseExpiryWALSurvivesCrash(t *testing.T) {
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

	now := time.Unix(1000, 0)
	work, err := sc.PickWork(1)
	if err != nil || len(work) != 1 {
		t.Fatalf("PickWork: %v %v", work, err)
	}
	if err := sc.AssignLease(work[0], "worker-0001", now.Add(time.Second)); err != nil {
		t.Fatal(err)
	}
	expired, err := sc.ExpireLeases(now.Add(2 * time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if len(expired) != 1 || expired[0].Worker != "worker-0001" {
		t.Fatalf("expired %+v", expired)
	}
	// A late Complete from the silent worker is a conflict, not a result.
	if err := sc.Complete(work[0], 0.9, 1); err == nil {
		t.Error("Complete after expiry accepted")
	}
	if err := log.Close(); err != nil { // crash boundary
		t.Fatal(err)
	}

	expiries := walEvents(t, dir, storage.EventLeaseExpired)
	if len(expiries) != 1 {
		t.Fatalf("recovered %d expiry records, want 1 (%+v)", len(expiries), expiries)
	}
	exp := expiries[0]
	if exp.Job != job.ID || exp.Candidate != work[0].Candidate.Name() || exp.Worker != "worker-0001" {
		t.Errorf("recovered expiry %+v", exp)
	}
	// The recovered scheduler re-queues the candidate: its arm is untried.
	sc2 := newTestScheduler(t)
	log2, tail, err := sc2.Recover(dir, storage.LogOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer log2.Close()
	if tail[storage.EventLeaseExpired] != 1 {
		t.Errorf("recovery replayed %d expiries, want 1", tail[storage.EventLeaseExpired])
	}
	again, err := sc2.PickWork(4)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, l := range again {
		if l.JobID == job.ID && l.Candidate.Name() == work[0].Candidate.Name() {
			found = true
		}
	}
	if !found {
		t.Errorf("expired candidate %s not re-queued after recovery", work[0].Candidate.Name())
	}
}

// Heartbeats keep a lease alive past its nominal TTL; silence expires it.
func TestHeartbeatKeepsLeaseAlive(t *testing.T) {
	sc := newTestScheduler(t)
	if _, err := sc.Submit("a", tsProgram); err != nil {
		t.Fatal(err)
	}
	now := time.Unix(0, 0)
	const ttl = time.Second

	work, err := sc.PickWork(1)
	if err != nil || len(work) != 1 {
		t.Fatalf("PickWork: %v %v", work, err)
	}
	if err := sc.AssignLease(work[0], "worker-0001", now.Add(ttl)); err != nil {
		t.Fatal(err)
	}
	// Unassigned leases (the in-process engine's) never expire, no matter
	// how silent: only worker-held leases are subject to the TTL.
	if _, err := sc.Submit("b", tsProgram); err != nil {
		t.Fatal(err)
	}
	local, err := sc.PickWork(2)
	if err != nil || len(local) != 1 {
		t.Fatalf("PickWork for local lease: %v %v", local, err)
	}
	for i := 0; i < 5; i++ {
		now = now.Add(800 * time.Millisecond) // below the TTL each step, past it in sum
		if err := sc.HeartbeatLease(work[0].ID, "worker-0001", now.Add(ttl)); err != nil {
			t.Fatal(err)
		}
		if expired, _ := sc.ExpireLeases(now); len(expired) != 0 {
			t.Fatalf("lease expired despite heartbeats at step %d", i)
		}
	}
	now = now.Add(1200 * time.Millisecond) // now go silent past the TTL
	expired, err := sc.ExpireLeases(now)
	if err != nil {
		t.Fatal(err)
	}
	if len(expired) != 1 {
		t.Fatalf("silent lease did not expire (got %d)", len(expired))
	}
	if err := sc.HeartbeatLease(work[0].ID, "worker-0001", now.Add(ttl)); err == nil {
		t.Error("heartbeat for an expired lease accepted")
	}
}

// Double-reporting a lease over HTTP must answer 409 with the
// lease_conflict code — workers racing on retries drop the loser.
func TestDoubleCompleteIs409Conflict(t *testing.T) {
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
	if reg.Seed != fleetSeed {
		t.Errorf("advertised seed %d, want %d", reg.Seed, fleetSeed)
	}
	lr, err := pc.lease(ctx, LeaseRequest{WorkerID: reg.WorkerID, Max: 1})
	leases := lr.Leases
	if err != nil || len(leases) != 1 {
		t.Fatalf("lease: %v %v", leases, err)
	}
	first := CompleteRequest{WorkerID: reg.WorkerID, LeaseID: leases[0].LeaseID, Accuracy: 0.7, Cost: 10}
	if _, err := pc.complete(ctx, first); err != nil {
		t.Fatal(err)
	}
	_, err = pc.complete(ctx, first)
	var pe *client.APIError
	if !errors.As(err, &pe) || pe.Status != 409 || pe.Code != server.CodeLeaseConflict {
		t.Errorf("double complete: got %v, want 409 %s", err, server.CodeLeaseConflict)
	}
	// Unknown worker ids answer 409 unknown_worker — the re-register signal.
	_, err = pc.lease(ctx, LeaseRequest{WorkerID: "worker-9999", Max: 1})
	if !IsCode(err, CodeUnknownWorker) {
		t.Errorf("lease for unknown worker: got %v, want code %s", err, CodeUnknownWorker)
	}
}

// A graceful leave releases the worker's leases immediately instead of
// waiting out the TTL, and the registry records the departure.
func TestGracefulLeaveRequeuesImmediately(t *testing.T) {
	sc := newTestScheduler(t)
	if _, err := sc.Submit("a", tsProgram); err != nil {
		t.Fatal(err)
	}
	coord := NewCoordinator(sc, CoordinatorConfig{LeaseTTL: time.Hour, Seed: fleetSeed})
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()

	blocker := newBlockingExecutor()
	agent, err := NewAgent(AgentConfig{
		Coordinator: srv.URL, Name: "leaver", Devices: 1, Executor: blocker,
		PollInterval: 5 * time.Millisecond, HeartbeatInterval: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); _ = agent.Run(ctx) }()
	select {
	case <-blocker.started:
	case <-time.After(5 * time.Second):
		t.Fatal("agent never received a lease")
	}
	if sc.InFlight() != 1 {
		t.Fatalf("in-flight %d, want 1", sc.InFlight())
	}
	cancel()
	<-done
	if sc.InFlight() != 0 {
		t.Errorf("leave did not release the lease (in-flight %d)", sc.InFlight())
	}
	st := coord.FleetStatus()
	if st.Left != 1 {
		t.Errorf("registry shows %d departed workers, want 1 (%+v)", st.Left, st.Workers)
	}
	// The released candidate is selectable again.
	again, err := sc.PickWork(1)
	if err != nil || len(again) != 1 {
		t.Errorf("re-lease after leave: %v %v", again, err)
	}
}

// A /fleet/leave racing a settle-and-lease from the same worker must not
// leave the departed worker holding a lease: the leave marks the worker
// left before it collects its leases, and a grant checks the worker is
// still active after assigning, so the embedded grant is handed back on
// one side or the other. Most rounds race freely over the wire; every
// fourth forces the worst interleaving, holding the grant lock so the
// whole leave runs after the embedded request's liveness check and before
// its grant.
func TestLeaveRacingSettleAndLeaseLeavesNoLeaseHeld(t *testing.T) {
	sc := newTestScheduler(t)
	for i := 0; i < 16; i++ {
		if _, err := sc.Submit("a", tsProgram); err != nil {
			t.Fatal(err)
		}
	}
	clock := &fakeClock{now: time.Unix(10_000, 0)}
	coord := NewCoordinator(sc, CoordinatorConfig{LeaseTTL: time.Hour, Seed: fleetSeed})
	coord.setClock(clock.Now)
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()
	pc := newProtoClient(srv.URL, nil)
	ctx := context.Background()
	heartbeatAge := func(id string) float64 {
		for _, w := range coord.FleetStatus().Workers {
			if w.ID == id {
				return w.HeartbeatAgeMS
			}
		}
		return -1
	}

	const rounds = 24
	for i := 0; i < rounds; i++ {
		reg, err := pc.register(ctx, RegisterRequest{Name: "racer", Devices: 1})
		if err != nil {
			t.Fatal(err)
		}
		lr, err := pc.lease(ctx, LeaseRequest{WorkerID: reg.WorkerID, Max: 1})
		if err != nil || len(lr.Leases) != 1 {
			t.Fatalf("lease: %+v %v", lr, err)
		}
		report := CompleteRequest{WorkerID: reg.WorkerID, LeaseID: lr.Leases[0].LeaseID,
			Accuracy: 0.5, Cost: 1, Lease: &LeaseRequest{Max: 1}}
		forced := i%4 == 0
		if forced {
			coord.mu.Lock()
			clock.tick(time.Second) // the report's liveness check zeroes the heartbeat age
		}
		var wg sync.WaitGroup
		wg.Add(1)
		go func() { defer wg.Done(); _, _ = pc.complete(ctx, report) }()
		if forced {
			eventually(t, "the embedded lease request to pass the liveness check", func() bool { return heartbeatAge(reg.WorkerID) == 0 })
		}
		_, err = pc.leave(ctx, reg.WorkerID)
		if forced {
			coord.mu.Unlock()
		}
		if err != nil {
			t.Fatal(err)
		}
		wg.Wait()
		if held := sc.HeldLeases()[reg.WorkerID]; len(held) != 0 {
			t.Fatalf("round %d: departed %s holds %d leases", i, reg.WorkerID, len(held))
		}
	}
	st := coord.FleetStatus()
	if st.Left != rounds || st.RemoteLeases != 0 || sc.InFlight() != 0 {
		t.Errorf("after the races: %d left, %d remote leases, %d in flight; want %d, 0, 0", st.Left, st.RemoteLeases, sc.InFlight(), rounds)
	}
}

// A coordinator restart (in-memory registry lost, possibly new seed and
// recycled job ids) must not poison a long-lived agent: on unknown_worker
// it re-registers exactly once, rebuilds its default executor on the new
// seed and drops its per-job candidate cache, so post-restart results
// match what the new coordinator's own trainer would produce.
func TestAgentSurvivesCoordinatorRestart(t *testing.T) {
	var handler atomic.Value // http.Handler: swapped to simulate the restart
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		handler.Load().(http.Handler).ServeHTTP(w, r)
	}))
	defer srv.Close()

	sc1 := newTestScheduler(t)
	if _, err := sc1.Submit("first", tsProgram); err != nil {
		t.Fatal(err)
	}
	coord1 := NewCoordinator(sc1, CoordinatorConfig{Seed: fleetSeed})
	handler.Store(coord1.Handler())

	agent, err := NewAgent(AgentConfig{
		Coordinator: srv.URL, Name: "survivor", Devices: 1,
		PollInterval: 5 * time.Millisecond, HeartbeatInterval: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); _ = agent.Run(ctx) }()
	waitDrained := func(sc *server.Scheduler) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); ; {
			st, err := sc.Status("job-0001")
			if err != nil {
				t.Fatal(err)
			}
			if st.Trained == st.NumCandidates {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("agent never drained the job: %+v", st)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	waitDrained(sc1)

	// "Restart" the coordinator: fresh scheduler on a different seed, the
	// same job id naming a different training surface.
	const newSeed = 99
	sc2 := server.NewScheduler(server.NewSimTrainer(cluster.NewPool(8, 0.9), newSeed), nil, "")
	if _, err := sc2.Submit("second", tsProgram); err != nil {
		t.Fatal(err)
	}
	coord2 := NewCoordinator(sc2, CoordinatorConfig{Seed: newSeed})
	handler.Store(coord2.Handler())
	waitDrained(sc2)
	cancel()
	<-done

	// The post-restart results must equal what sc2's own trainer produces
	// — a stale seed-42 executor or candidate cache would diverge.
	baseline := server.NewScheduler(server.NewSimTrainer(cluster.NewPool(8, 0.9), newSeed), nil, "")
	if _, err := baseline.Submit("second", tsProgram); err != nil {
		t.Fatal(err)
	}
	if _, err := baseline.RunRounds(100); err != nil {
		t.Fatal(err)
	}
	want, _ := baseline.Status("job-0001")
	got, _ := sc2.Status("job-0001")
	accs := make(map[string]float64, len(want.Models))
	for _, m := range want.Models {
		accs[m.Name] = m.Accuracy
	}
	for _, m := range got.Models {
		if accs[m.Name] != m.Accuracy {
			t.Errorf("post-restart %q accuracy %g, want %g (stale executor state?)", m.Name, m.Accuracy, accs[m.Name])
		}
	}
	// Exactly one re-registration: the ghost-free registry shows one
	// worker on the new coordinator.
	if st := coord2.FleetStatus(); len(st.Workers) != 1 || st.Workers[0].Completed != 4 {
		t.Errorf("post-restart registry %+v, want exactly one worker with 4 completions", st.Workers)
	}
}

// Priority preemption end-to-end over the wire: a best-effort tenant
// saturates the in-flight cap, a guaranteed job arrives, and the next
// lease poll reclaims one best-effort lease — the heartbeat no longer
// lists it, the late report bounces off 409 lease_conflict, and the fleet
// counters record the preemption.
func TestPreemptionOverWire(t *testing.T) {
	ctrl, err := admission.NewController(admission.Config{Tenants: map[string]admission.Quota{
		"alice": {Class: admission.ClassGuaranteed},
		"carol": {Class: admission.ClassBestEffort},
	}})
	if err != nil {
		t.Fatal(err)
	}
	sc := server.NewScheduler(server.NewSimTrainer(cluster.NewPool(8, 0.9), fleetSeed), ctrl, "")
	coord := NewCoordinator(sc, CoordinatorConfig{Seed: fleetSeed, MaxInFlight: 2})
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()
	pc := newProtoClient(srv.URL, nil)
	ctx := context.Background()

	if _, err := sc.Submit("carol", tsProgram); err != nil {
		t.Fatal(err)
	}
	reg, err := pc.register(ctx, RegisterRequest{Name: "w", Devices: 2})
	if err != nil {
		t.Fatal(err)
	}
	lr, err := pc.lease(ctx, LeaseRequest{WorkerID: reg.WorkerID, Max: 2})
	leases := lr.Leases
	if err != nil || len(leases) != 2 {
		t.Fatalf("lease: %v %v", leases, err)
	}

	// Guaranteed work arrives while the cap is saturated; the next poll
	// preempts one best-effort lease and can grant the freed slot.
	if _, err := sc.Submit("alice", tsProgram); err != nil {
		t.Fatal(err)
	}
	rr, err := pc.lease(ctx, LeaseRequest{WorkerID: reg.WorkerID, Max: 1})
	if err != nil {
		t.Fatal(err)
	}
	regrant := rr.Leases
	if len(regrant) != 1 {
		t.Fatalf("post-preemption poll granted %d leases, want 1", len(regrant))
	}

	// Exactly one of the two original leases was preempted (the newest):
	// the heartbeat leaves it out of KnownLeases, the holder's abort signal.
	hb, err := pc.heartbeat(ctx, HeartbeatRequest{
		WorkerID: reg.WorkerID,
		LeaseIDs: []int{leases[0].LeaseID, leases[1].LeaseID, regrant[0].LeaseID},
	})
	if err != nil {
		t.Fatal(err)
	}
	if slices.Contains(hb.KnownLeases, leases[1].LeaseID) {
		t.Fatalf("known leases %v still list the preempted lease %d", hb.KnownLeases, leases[1].LeaseID)
	}
	if len(hb.KnownLeases) != 2 {
		t.Fatalf("known leases %v, want the surviving two", hb.KnownLeases)
	}

	// The late report for the preempted lease loses with 409.
	_, err = pc.complete(ctx, CompleteRequest{WorkerID: reg.WorkerID, LeaseID: leases[1].LeaseID, Accuracy: 0.5, Cost: 1})
	var pe *client.APIError
	if !errors.As(err, &pe) || pe.Status != 409 {
		t.Fatalf("late complete after preemption: %v, want 409", err)
	}

	st := coord.FleetStatus()
	if st.PreemptedLeases != 1 {
		t.Errorf("fleet preempted %d, want 1", st.PreemptedLeases)
	}
	if len(st.Workers) != 1 || st.Workers[0].PreemptedLeases != 1 {
		t.Errorf("worker preemption tally %+v", st.Workers)
	}
	// The in-flight counts are the lease table's: the surviving original
	// and the regrant.
	if st.RemoteLeases != 2 || len(st.Workers) != 1 || st.Workers[0].InFlight != 2 {
		t.Errorf("in flight: %d fleet-wide, workers %+v; want 2 on the one worker", st.RemoteLeases, st.Workers)
	}
	// No preemption without starved guaranteed demand: drain every
	// unleased arm (alice's and carol's) through the regular lease cycle;
	// a direct preemption pass must then leave carol's surviving original
	// lease alone even though it is still preemptible by class.
	for _, wl := range regrant {
		if _, err := pc.complete(ctx, CompleteRequest{WorkerID: reg.WorkerID, LeaseID: wl.LeaseID, Accuracy: 0.6, Cost: 1}); err != nil {
			t.Fatal(err)
		}
	}
	for {
		mr, err := pc.lease(ctx, LeaseRequest{WorkerID: reg.WorkerID, Max: 1})
		if err != nil {
			t.Fatal(err)
		}
		more := mr.Leases
		if len(more) == 0 {
			break
		}
		for _, wl := range more {
			if _, err := pc.complete(ctx, CompleteRequest{WorkerID: reg.WorkerID, LeaseID: wl.LeaseID, Accuracy: 0.6, Cost: 1}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if coord.Preempt() {
		t.Fatal("preemption fired without starved guaranteed demand")
	}
	if st := coord.FleetStatus(); st.PreemptedLeases != 1 {
		t.Errorf("preemption tally moved to %d without demand", st.PreemptedLeases)
	}
}
