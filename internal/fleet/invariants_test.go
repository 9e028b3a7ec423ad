package fleet

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"net/http/httptest"
	"os"
	"sort"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/admission"
	"repro/internal/server"
	"repro/internal/storage"
)

// chaosPlan is one randomized interleaving scenario, derived from the seed
// before the fleet run so the run and its single-process reference submit
// the same jobs (the timing interleavings of the fleet still vary freely).
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

// chaosScheduler builds a scheduler with the plan's two admission classes.
func chaosScheduler(t *testing.T) *server.Scheduler {
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
	return sc
}

// chaosReference is the single-process run of a plan, built the way
// baselineModels builds it: the same submits in the same order (the late
// job last), then RunRounds to exhaustion.
func chaosReference(t *testing.T, plan chaosPlan) map[string]jobOutcome {
	t.Helper()
	sc := chaosScheduler(t)
	tenants := plan.tenants
	if plan.lateJob {
		tenants = append(tenants[:len(tenants):len(tenants)], "alice")
	}
	var ids []string
	for _, tenant := range tenants {
		j, err := sc.Submit(tenant, tsProgram)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, j.ID)
	}
	if _, err := sc.RunRounds(1000); err != nil {
		t.Fatal(err)
	}
	return jobOutcomes(t, sc, ids)
}

// runFleetChaos drains a plan's jobs through a coordinator and remote
// agents over HTTP and returns every job's outcome.
func runFleetChaos(t *testing.T, plan chaosPlan) map[string]jobOutcome {
	t.Helper()
	sc := chaosScheduler(t)
	var ids []string
	for i := 0; i < plan.jobs; i++ {
		j, err := sc.Submit(plan.tenants[i], tsProgram)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, j.ID)
	}
	coord := NewCoordinator(sc, CoordinatorConfig{
		LeaseTTL:          150 * time.Millisecond,
		HeartbeatInterval: 40 * time.Millisecond,
		SweepInterval:     20 * time.Millisecond,
		DeadAfter:         250 * time.Millisecond,
		PollInterval:      5 * time.Millisecond,
		Seed:              fleetSeed,
		MaxInFlight:       plan.maxInFlight,
	})
	coord.Start()
	defer coord.Stop()
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()

	var wg sync.WaitGroup
	if plan.killWorker {
		// The doomed worker blocks on its first lease, then dies silently;
		// the lease must expire and re-queue exactly once.
		doomed := newBlockingExecutor()
		doomedAgent, err := NewAgent(AgentConfig{
			Coordinator: srv.URL, Name: "doomed", Devices: 1,
			Executor: doomed, SkipLeaveOnExit: true,
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
			Executor:     NewSimExecutor(fleetSeed),
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
			t.Fatalf("fleet did not converge: %+v", fleetTrainedCounts(t, sc, ids))
		}
		time.Sleep(5 * time.Millisecond)
	}
	stopHealthy()
	wg.Wait()
	return jobOutcomes(t, sc, ids)
}

// The fleet must be invisible in the results: across randomized
// interleavings — lease expiry via a killed worker, priority preemption
// under a saturated cap, a guaranteed job arriving mid-run, mixed classes —
// a fleet drain trains every job to the same models, best picks and cost as
// the single-process scheduler given the same submits.
func TestRandomizedInvariantsFleet(t *testing.T) {
	seeds := 8
	if testing.Short() {
		seeds = 3
	}
	if s := os.Getenv("INVARIANT_SEEDS"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			seeds = n
		}
	}
	for seed := 0; seed < seeds; seed++ {
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
			got := runFleetChaos(t, plan)
			want := chaosReference(t, plan)
			if len(got) != len(want) {
				t.Fatalf("job sets diverge: fleet %d, reference %d", len(got), len(want))
			}
			for id, a := range got {
				b, ok := want[id]
				if !ok {
					t.Errorf("job %s missing from the reference run", id)
					continue
				}
				if a.Trained != b.Trained || a.Best != b.Best || a.BestAcc != b.BestAcc {
					t.Errorf("job %s diverges: fleet %+v, reference %+v", id, a, b)
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
}
