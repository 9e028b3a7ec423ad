package server_test

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/admission"
	"repro/internal/cluster"
	"repro/internal/server"
	"repro/internal/storage"
)

// The randomized invariant suite: N seeds of adversarial interleavings over
// the full lease lifecycle — picks, completions, double-completion races,
// releases, heartbeats, worker kills (lease expiry), priority preemption,
// budget exhaustion and bursts of concurrent settles of one job — each
// followed by a crash and WAL recovery. Three
// invariants must hold on every seed:
//
//  1. no candidate is ever trained (observed) twice;
//  2. no lease is ever double-completed — the second settle always fails
//     with ErrLeaseConflict;
//  3. post-crash WAL replay reproduces the live scheduler's durable state
//     bit-for-bit: per-job Status (models, rounds, costs, abandon/budget
//     markers), per-job scheduling scalars (σ̃, gap, best, tried) and the
//     round counter are equal, and draining the recovered scheduler to
//     exhaustion never re-trains a recorded candidate.
//
// The seed count scales with the environment: 4 under -short (the race CI
// job), 12 by default, and INVARIANT_SEEDS overrides both — the nightly CI
// schedule runs 10× the default.
func TestRandomizedInvariants(t *testing.T) {
	seeds := 12
	if testing.Short() {
		seeds = 4
	}
	if s := os.Getenv("INVARIANT_SEEDS"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n <= 0 {
			t.Fatalf("INVARIANT_SEEDS=%q is not a positive integer", s)
		}
		seeds = n
	}
	for seed := 0; seed < seeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%03d", seed), func(t *testing.T) {
			t.Parallel()
			runInvariantSeed(t, int64(seed))
		})
	}
}

// invariantHarness is one seed's world: a durable scheduler under a fake
// clock, its admission controller, and the test's mirror of outstanding
// leases.
type invariantHarness struct {
	t    *testing.T
	rng  *rand.Rand
	sc   *server.Scheduler
	ctrl *admission.Controller

	mu  sync.Mutex
	now time.Time

	outstanding []*server.Lease
	trained     map[string]int // "job/candidate" → completed observations
	settled     map[int]bool   // lease id → already completed once
}

func (h *invariantHarness) clock() time.Time {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.now
}

func (h *invariantHarness) advance(d time.Duration) {
	h.mu.Lock()
	h.now = h.now.Add(d)
	h.mu.Unlock()
}

func (h *invariantHarness) dropOutstanding(id int) {
	for i, l := range h.outstanding {
		if l.ID == id {
			h.outstanding = append(h.outstanding[:i], h.outstanding[i+1:]...)
			return
		}
	}
}

func runInvariantSeed(t *testing.T, seed int64) {
	dir := t.TempDir()
	quotas := admission.Config{Tenants: map[string]admission.Quota{
		"alice": {Class: admission.ClassGuaranteed},
		"bob":   {Class: admission.ClassStandard},
		"carol": {Class: admission.ClassBestEffort},
	}}
	open := func() (*server.Scheduler, *admission.Controller, *storage.Log) {
		ctrl, err := admission.NewController(quotas)
		if err != nil {
			t.Fatal(err)
		}
		sc := server.NewScheduler(server.NewSimTrainer(cluster.NewPool(8, 0.9), 42), ctrl, "")
		log, _, err := sc.Recover(dir, storage.LogOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return sc, ctrl, log
	}

	sc, ctrl, _ := open()
	h := &invariantHarness{
		t:       t,
		rng:     rand.New(rand.NewSource(seed)),
		sc:      sc,
		ctrl:    ctrl,
		now:     time.Unix(10_000, 0),
		trained: make(map[string]int),
		settled: make(map[int]bool),
	}

	jobs := make(map[string]string) // tenant → job id
	for _, tenant := range []string{"alice", "bob", "carol"} {
		job, err := sc.Submit(tenant, tsProgram)
		if err != nil {
			t.Fatal(err)
		}
		jobs[tenant] = job.ID
	}

	key := func(l *server.Lease) string { return l.JobID + "/" + l.Candidate.Name() }

	// settled books the result of one Complete call against the invariants.
	settled := func(l *server.Lease, err error) {
		h.dropOutstanding(l.ID)
		if err == nil {
			if h.settled[l.ID] {
				t.Fatalf("lease %d (%s) completed twice", l.ID, key(l))
			}
			h.settled[l.ID] = true
			h.trained[key(l)]++
			if h.trained[key(l)] > 1 {
				t.Fatalf("candidate %s trained %d times", key(l), h.trained[key(l)])
			}
			return
		}
		// A failed completion must never have recorded an observation; the
		// only acceptable failure in this workload is a lease-lifecycle
		// conflict (expired, preempted, budget-drained, double-settled).
		if !errors.Is(err, server.ErrLeaseConflict) {
			t.Fatalf("complete of %s failed outside the conflict protocol: %v", key(l), err)
		}
	}
	complete := func(l *server.Lease) {
		settled(l, h.sc.Complete(l, 0.2+0.6*h.rng.Float64(), 1+10*h.rng.Float64()))
	}

	const ops = 160
	for op := 0; op < ops; op++ {
		switch h.rng.Intn(11) {
		case 0, 1, 2: // lease new work, mostly onto named workers
			batch, err := h.sc.PickWork(1 + h.rng.Intn(4))
			if err != nil {
				t.Fatalf("op %d PickWork: %v", op, err)
			}
			for _, l := range batch {
				if h.rng.Intn(4) > 0 {
					worker := fmt.Sprintf("worker-%d", 1+h.rng.Intn(3))
					if err := h.sc.AssignLease(l, worker, h.clock().Add(time.Second)); err != nil {
						t.Fatalf("op %d assign: %v", op, err)
					}
				}
				h.outstanding = append(h.outstanding, l)
			}
		case 3, 4, 5: // complete a random outstanding lease
			if len(h.outstanding) == 0 {
				continue
			}
			complete(h.outstanding[h.rng.Intn(len(h.outstanding))])
		case 6: // double-completion race: settle, then settle again
			if len(h.outstanding) == 0 {
				continue
			}
			l := h.outstanding[h.rng.Intn(len(h.outstanding))]
			complete(l)
			if err := h.sc.Complete(l, 0.9, 1); !errors.Is(err, server.ErrLeaseConflict) {
				t.Fatalf("second completion of lease %d did not conflict: %v", l.ID, err)
			}
		case 7: // release a lease untrained (drain / engine shutdown)
			if len(h.outstanding) == 0 {
				continue
			}
			l := h.outstanding[h.rng.Intn(len(h.outstanding))]
			if err := h.sc.Release(l); err != nil && !errors.Is(err, server.ErrLeaseConflict) {
				t.Fatalf("release: %v", err)
			}
			h.dropOutstanding(l.ID)
		case 8: // worker kill: heartbeat a surviving subset, expire the rest
			for _, l := range h.outstanding {
				if l.Worker != "" && h.rng.Intn(2) == 0 {
					_ = h.sc.HeartbeatLease(l.ID, l.Worker, h.clock().Add(time.Second)) // may already be gone; fine
				}
			}
			h.advance(time.Duration(600+h.rng.Intn(900)) * time.Millisecond)
			expired, err := h.sc.ExpireLeases(h.clock())
			if err != nil {
				t.Fatalf("expire: %v", err)
			}
			for _, l := range expired {
				if l.Worker == "" {
					t.Fatalf("unassigned lease %d expired", l.ID)
				}
				h.dropOutstanding(l.ID)
			}
		case 9: // priority preemption, and sometimes a budget cliff for carol
			if h.rng.Intn(3) == 0 {
				cost := h.sc.TenantCost("carol")
				if cost > 0 && h.ctrl.Budget("carol") == 0 {
					if err := h.ctrl.SetQuota("carol", admission.Quota{
						Class: admission.ClassBestEffort, Budget: cost + 1e-9,
					}); err != nil {
						t.Fatal(err)
					}
				}
			}
			victim, err := h.sc.PreemptForPriority()
			if err != nil {
				t.Fatalf("preempt: %v", err)
			}
			if victim != nil {
				if victim.JobID != jobs["carol"] {
					t.Fatalf("preempted %s; only best-effort leases are preemptible", victim.JobID)
				}
				h.dropOutstanding(victim.ID)
				// The late report must bounce.
				if err := h.sc.Complete(victim, 0.5, 1); !errors.Is(err, server.ErrLeaseConflict) {
					t.Fatalf("completion after preemption did not conflict: %v", err)
				}
			}
		case 10: // settle burst: every outstanding lease of one job at once
			if len(h.outstanding) == 0 {
				continue
			}
			jobID := h.outstanding[h.rng.Intn(len(h.outstanding))].JobID
			var burst []*server.Lease
			for _, l := range h.outstanding {
				if l.JobID == jobID {
					burst = append(burst, l)
				}
			}
			errs := make([]error, len(burst))
			var wg sync.WaitGroup
			for i, l := range burst {
				acc, cost := 0.2+0.6*h.rng.Float64(), 1+10*h.rng.Float64()
				wg.Add(1)
				go func(i int, l *server.Lease) {
					defer wg.Done()
					errs[i] = h.sc.Complete(l, acc, cost)
				}(i, l)
			}
			wg.Wait()
			for i, l := range burst {
				settled(l, errs[i])
			}
		}
		// The selection index is maintained incrementally by every op above;
		// between ops it must equal the state it is a copy of.
		if err := h.sc.CheckIndexConsistent(); err != nil {
			t.Fatalf("op %d: selection index drifted: %v", op, err)
		}
		// Sprinkle user-path traffic through the same WAL.
		if h.rng.Intn(5) == 0 {
			id := jobs[[]string{"alice", "bob", "carol"}[h.rng.Intn(3)]]
			if _, err := h.sc.Feed(id, []float64{1, 2, 3, 4}, []float64{0, 1}); err != nil &&
				!errors.Is(err, admission.ErrQuotaExceeded) {
				t.Fatalf("feed: %v", err)
			}
		}
	}

	// Crash: abandon the scheduler and its log mid-flight, leases
	// outstanding, no Close, no Compact.
	liveRounds := sc.Rounds()
	liveCosts := sc.TenantCosts()
	liveStatus := make(map[string]server.Status)
	liveScalars := make(map[string]string)
	for tenant, id := range jobs {
		st, err := sc.Status(id)
		if err != nil {
			t.Fatal(err)
		}
		liveStatus[tenant] = st
		j, _ := sc.Job(id)
		liveScalars[tenant] = fmt.Sprintf("%x", j.Scalars()) // floats in exact hexadecimal
	}

	sc2, _, _ := open()
	if got := sc2.Rounds(); got != liveRounds {
		t.Fatalf("recovered %d rounds, live had %d", got, liveRounds)
	}
	if got := sc2.TenantCosts(); !reflect.DeepEqual(got, liveCosts) {
		t.Fatalf("recovered tenant costs %v, live %v", got, liveCosts)
	}
	if sc2.InFlight() != 0 {
		t.Fatalf("recovered scheduler has %d leases in flight", sc2.InFlight())
	}
	for tenant, id := range jobs {
		st, err := sc2.Status(id)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(st, liveStatus[tenant]) {
			t.Fatalf("recovered status of %s diverged:\nlive: %+v\nrec:  %+v", tenant, liveStatus[tenant], st)
		}
		// The σ̃ recurrence replays the UCB each arm was leased at, so what
		// HYBRID ranks the tenant by is bit-identical too.
		j, _ := sc2.Job(id)
		if got := fmt.Sprintf("%x", j.Scalars()); got != liveScalars[tenant] {
			t.Fatalf("recovered scalars of %s diverged:\nlive: %s\nrec:  %s", tenant, liveScalars[tenant], got)
		}
	}

	// Drain the recovered scheduler to exhaustion: every remaining
	// candidate trains at most once, and nothing already recorded trains
	// again.
	if err := sc2.CheckIndexConsistent(); err != nil {
		t.Fatalf("recovered selection index: %v", err)
	}
	if _, err := sc2.RunRounds(1 << 20); err != nil {
		t.Fatalf("post-recovery drain: %v", err)
	}
	for tenant, id := range jobs {
		st, err := sc2.Status(id)
		if err != nil {
			t.Fatal(err)
		}
		seen := make(map[string]int)
		for _, m := range st.Models {
			seen[m.Name]++
			if seen[m.Name] > 1 {
				t.Fatalf("%s candidate %s recorded %d times after recovery+drain", tenant, m.Name, seen[m.Name])
			}
		}
		if st.BudgetExhausted && st.Trained != liveStatus[tenant].Trained {
			t.Fatalf("%s budget-drained job trained %d more candidates after recovery",
				tenant, st.Trained-liveStatus[tenant].Trained)
		}
	}
}
