package fleet

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/templates"
)

// newCacheAgent builds an unregistered agent whose posterior cache holds
// jobs surfaces of arms open arms each, UCBs drawn from rng (coarse, so ties
// exercise the tie-breaks).
func newCacheAgent(t testing.TB, rng *rand.Rand, jobs, arms int) *Agent {
	t.Helper()
	a, err := NewAgent(AgentConfig{Coordinator: "http://unused"})
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < jobs; j++ {
		p := JobPosterior{JobID: fmt.Sprintf("job-%04d", j), Epoch: uint64(1 + rng.Intn(5)), UCB: make([]float64, arms)}
		for k := range p.UCB {
			p.UCB[k] = float64(rng.Intn(40)) / 8
		}
		a.adoptSurfaceLocked(&p)
	}
	return a
}

// executing reports whether the agent owns a lease of the job.
func executing(a *Agent, job string) bool {
	for _, r := range a.running {
		if r.job == job {
			return true
		}
	}
	return false
}

// rankBySort is the ordering contract, spelled as the sort the agent used
// to run: affinity first, UCB descending, then job, then arm, over every
// open arm of every job that is neither done nor being executed.
func rankBySort(a *Agent, n int) []LeaseProposal {
	type scored struct {
		LeaseProposal
		ucb      float64
		affinity bool
	}
	var cands []scored
	for id, s := range a.posteriors {
		if s.done || executing(a, id) {
			continue
		}
		_, affinity := a.jobs[id]
		for arm, open := range s.open {
			if open {
				cands = append(cands, scored{LeaseProposal{JobID: id, Arm: arm, Epoch: s.epoch}, s.ucb[arm], affinity})
			}
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].affinity != cands[j].affinity {
			return cands[i].affinity
		}
		if cands[i].ucb != cands[j].ucb {
			return cands[i].ucb > cands[j].ucb
		}
		if cands[i].JobID != cands[j].JobID {
			return cands[i].JobID < cands[j].JobID
		}
		return cands[i].Arm < cands[j].Arm
	})
	if len(cands) > n {
		cands = cands[:n]
	}
	var props []LeaseProposal
	for _, c := range cands {
		props = append(props, c.LeaseProposal)
	}
	return props
}

// The one-pass ranking returns exactly the head of the full sort, skips
// done jobs and jobs the agent is executing, and reserves what it proposes:
// asking again yields the next-best arms, never the same ones.
func TestProposalsMatchFullSortAndReserve(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		a := newCacheAgent(t, rng, 12, 6)
		for id, s := range a.posteriors {
			switch rng.Intn(5) {
			case 0:
				a.jobs[id] = map[string]templates.Candidate{} // resolved: affinity
			case 1:
				s.done = true
			case 2:
				a.running[1000+len(a.running)] = runningLease{job: id, cancel: func() {}}
			}
			s.open[rng.Intn(len(s.open))] = false
		}
		asked := map[LeaseProposal]bool{}
		for round := 0; round < 4; round++ {
			n := 1 + rng.Intn(4)
			want := rankBySort(a, n)
			got := a.proposalsLocked(n)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d round %d (n=%d):\n got %v\nwant %v", seed, round, n, got, want)
			}
			for _, p := range got {
				if asked[p] {
					t.Fatalf("seed %d: %+v proposed twice", seed, p)
				}
				asked[p] = true
				if executing(a, p.JobID) || a.posteriors[p.JobID].done {
					t.Fatalf("seed %d: proposed %+v of a done or executing job", seed, p)
				}
			}
		}
	}
	off, err := NewAgent(AgentConfig{Coordinator: "http://unused", DisableSpeculative: true})
	if err != nil {
		t.Fatal(err)
	}
	off.posteriors["job-0001"] = &postSurface{epoch: 1, ucb: []float64{1}, open: []bool{true}}
	if got := off.proposalsLocked(2); got != nil {
		t.Errorf("speculation off proposed %v", got)
	}
}

// Answers reach the agent in any order — each slot adopts its own — so
// adoption is idempotent: a job's surface only moves to a newer epoch (an
// older or equal one changes nothing, reservations included) and the cursor
// only forward.
func TestAgentAdoptsAnswersInAnyOrder(t *testing.T) {
	a, err := NewAgent(AgentConfig{Coordinator: "http://unused"})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	from := slot{epoch: a.epoch}
	newer := LeaseResponse{PosteriorVersion: 12, Posteriors: []JobPosterior{
		{JobID: "job-0001", Epoch: 5, UCB: []float64{1, 3, 2}, Tried: []int{0}},
		{JobID: "job-0002", Epoch: 2, Done: true},
	}}
	a.adopt(ctx, from, 0, newer)
	if got := a.proposalsLocked(1); len(got) != 1 || got[0] != (LeaseProposal{JobID: "job-0001", Arm: 1, Epoch: 5}) {
		t.Fatalf("proposed %v, want arm 1 of job-0001 at epoch 5", got)
	}
	snapshot := func() map[string]postSurface {
		out := map[string]postSurface{}
		for id, s := range a.posteriors {
			c := *s
			c.open = append([]bool(nil), s.open...)
			out[id] = c
		}
		return out
	}
	before := snapshot()

	older := LeaseResponse{PosteriorVersion: 9, Posteriors: []JobPosterior{
		{JobID: "job-0001", Epoch: 4, UCB: []float64{9, 9, 9}},
		{JobID: "job-0001", Epoch: 5, UCB: []float64{1, 3, 2}, Tried: []int{0}}, // same epoch: would reopen arm 1
		{JobID: "job-0002", Epoch: 1, UCB: []float64{7}},
	}}
	a.adopt(ctx, from, 0, older)
	if a.postVersion != 12 {
		t.Errorf("cursor moved back to %d", a.postVersion)
	}
	if after := snapshot(); !reflect.DeepEqual(after, before) {
		t.Errorf("an older answer changed the cache:\nbefore %+v\nafter  %+v", before, after)
	}
	// A genuinely newer surface replaces the old one wholesale.
	a.adopt(ctx, from, 0, LeaseResponse{PosteriorVersion: 13, Posteriors: []JobPosterior{
		{JobID: "job-0001", Epoch: 6, UCB: []float64{0, 0, 2}, Tried: []int{0, 1}},
	}})
	if s := a.posteriors["job-0001"]; s.epoch != 6 || !s.open[2] || s.open[1] || a.postVersion != 13 {
		t.Errorf("newer answer not adopted: %+v at cursor %d", s, a.postVersion)
	}
	// A granted arm is closed by its wire index even when no delta covers it.
	started := a.adopt(ctx, from, 0, LeaseResponse{PosteriorVersion: 13,
		Leases: []WireLease{{LeaseID: 7, JobID: "job-0001", Candidate: "c", Arm: 2}}})
	if len(started) != 1 || a.posteriors["job-0001"].open[2] || !executing(a, "job-0001") {
		t.Errorf("grant not reserved: started %d, surface %+v", len(started), a.posteriors["job-0001"])
	}
}

// Re-registration starts the feed over — cursor 0, empty cache — and an
// answer addressed to the old registration is dropped whole: its surfaces
// describe state the new registration resyncs from scratch, and its chained
// lease belongs to a worker id that no longer reports.
func TestReRegistrationResetsFeedAndDropsOldAnswers(t *testing.T) {
	a, err := NewAgent(AgentConfig{Coordinator: "http://unused"})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	a.adoptRegistration(RegisterResponse{WorkerID: "worker-0001", Seed: fleetSeed})
	old := slot{workerID: "worker-0001", epoch: a.epoch}
	aborted := false
	started := a.adopt(ctx, old, 0, LeaseResponse{PosteriorVersion: 40,
		Posteriors: []JobPosterior{{JobID: "job-0001", Epoch: 3, UCB: []float64{1, 2}}},
		Leases:     []WireLease{{LeaseID: 5, JobID: "job-0001", Candidate: "c", Arm: 1}}})
	if len(started) != 1 || a.postVersion != 40 || !executing(a, "job-0001") {
		t.Fatalf("first registration: started %d, cursor %d", len(started), a.postVersion)
	}
	a.running[5] = runningLease{job: "job-0001", cancel: func() { aborted = true }}

	a.adoptRegistration(RegisterResponse{WorkerID: "worker-0002", Seed: fleetSeed})
	if a.postVersion != 0 || len(a.posteriors) != 0 || !aborted {
		t.Fatalf("re-registration kept cursor %d, %d surfaces, run aborted=%v", a.postVersion, len(a.posteriors), aborted)
	}
	// The old slot's report comes back with a chained lease and a feed.
	started = a.adopt(ctx, old, 5, LeaseResponse{PosteriorVersion: 41,
		Posteriors: []JobPosterior{{JobID: "job-0001", Epoch: 4, UCB: []float64{1, 2}}},
		Leases:     []WireLease{{LeaseID: 6, JobID: "job-0001", Candidate: "d", Arm: 0}}})
	if len(started) != 0 || len(a.running) != 0 || a.postVersion != 0 || len(a.posteriors) != 0 {
		t.Errorf("old answer leaked into the new registration: started %d, running %d, cursor %d, surfaces %d",
			len(started), len(a.running), a.postVersion, len(a.posteriors))
	}
	if executing(a, "job-0001") {
		t.Error("the held-job set survived the old slot's exit")
	}
}

// BenchmarkAgentProposals is the worker-side cost of one lease request on a
// full cache: 256 jobs × 20 open arms, two free slots. Allocations per call
// are pinned in BENCH_allocs.json — they must not grow with the number of
// open arms.
func BenchmarkAgentProposals(b *testing.B) {
	a := newCacheAgent(b, rand.New(rand.NewSource(1)), 256, 20)
	for i, job := range []string{"job-0007", "job-0100"} { // both slots busy, as in a chained request
		a.running[i+1] = runningLease{job: job, cancel: func() {}}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		props := a.proposalsLocked(2)
		if len(props) != 2 {
			b.Fatalf("%d proposals", len(props))
		}
		for _, p := range props {
			a.posteriors[p.JobID].open[p.Arm] = true // hand the reservation back
		}
	}
}
