package server

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"testing"

	"repro/internal/linalg"
)

// footprintProgram is the 35-candidate image program of the footprint test.
const footprintProgram = "{input: {[Tensor[8, 8, 3]], []}, output: {[Tensor[2]], []}}"

func priorOf(job *Job) *linalg.Matrix { return job.tenant.Bandit.Process().Prior() }

// TestJobFootprint drains N jobs of one program — four leases outstanding,
// so every pick after the first hallucinates the in-flight arms — and
// measures the heap each finished job retains. Every job's GP adopts the
// one prior of the program's plan, and no drain writes it.
func TestJobFootprint(t *testing.T) {
	if testing.Short() {
		t.Skip("drains 1,000 jobs; the heap figure is meaningless under -race")
	}
	const n, devices = 1000, 4
	const budget = 28 << 10 // bytes retained per finished job

	// The flight recorder's rings are process-wide and fixed in size: one
	// lease through a scheduler of its own allocates them before the
	// measurement starts.
	warm := NewScheduler(NewSimTrainer(nil, 7), nil, "")
	if _, err := warm.Submit("warm-up", footprintProgram); err != nil {
		t.Fatal(err)
	}
	if _, err := warm.RunRound(); err != nil {
		t.Fatal(err)
	}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	sc := NewScheduler(NewSimTrainer(nil, 7), nil, "")
	jobs := make([]*Job, n)
	for i := range jobs {
		job, err := sc.Submit(fmt.Sprintf("tenant-%04d", i), footprintProgram)
		if err != nil {
			t.Fatal(err)
		}
		if len(job.Candidates) != 35 {
			t.Fatalf("%d candidates, want 35", len(job.Candidates))
		}
		jobs[i] = job
	}
	prior := priorOf(jobs[0])
	bits := slices.Clone(prior.RowView(0))
	for i := 1; i < prior.Rows(); i++ {
		bits = append(bits, prior.RowView(i)...)
	}

	var pending []*Lease
	settled := 0
	for {
		leases, err := sc.Grant(devices, devices)
		if err != nil {
			t.Fatal(err)
		}
		pending = append(pending, leases...)
		if len(pending) == 0 {
			break
		}
		l := pending[0]
		pending = pending[1:]
		acc, cost, err := sc.Trainer().Train(l.JobID, l.Candidate)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sc.Settle(l, acc, cost, nil); err != nil {
			t.Fatal(err)
		}
		settled++
	}
	if settled != 35*n {
		t.Fatalf("settled %d leases, want %d", settled, 35*n)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	perJob := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / n
	t.Logf("%.1f KB retained per finished 35-arm job (%d jobs)", perJob/1024, n)
	if perJob > budget {
		t.Errorf("%.0f bytes retained per finished job, budget %d", perJob, budget)
	}

	for _, job := range jobs {
		if priorOf(job) != prior || job.plan != jobs[0].plan {
			t.Fatalf("%s holds a prior or plan of its own", job.ID)
		}
	}
	for i := range prior.Rows() {
		for j, v := range prior.RowView(i) {
			if math.Float64bits(v) != math.Float64bits(bits[i*prior.Cols()+j]) {
				t.Fatalf("prior[%d][%d] changed during the drain: %x, was %x", i, j, v, bits[i*prior.Cols()+j])
			}
		}
	}
	runtime.KeepAlive(sc)
}

// TestPlanCacheIsBoundedAndPerScheduler: a scheduler keeps at most
// planCacheCapacity plans, least recently used out first, and an evicted
// program's next job builds a fresh plan; two schedulers share no plan.
func TestPlanCacheIsBoundedAndPerScheduler(t *testing.T) {
	program := func(i int) string {
		return fmt.Sprintf("{input: {[Tensor[%d]], [next]}, output: {[Tensor[2]], []}}", i+1)
	}
	a := NewScheduler(NewSimTrainer(nil, 1), nil, "")
	first, err := a.Submit("t", program(0))
	if err != nil {
		t.Fatal(err)
	}
	again, err := a.Submit("t", program(0))
	if err != nil {
		t.Fatal(err)
	}
	if again.plan != first.plan {
		t.Fatal("a repeated program built a second plan")
	}
	var last *Job
	for i := 1; i <= planCacheCapacity; i++ {
		if last, err = a.Submit("t", program(i)); err != nil {
			t.Fatal(err)
		}
	}
	evicted, err := a.Submit("t", program(0))
	if err != nil {
		t.Fatal(err)
	}
	if evicted.plan == first.plan {
		t.Fatal("the least recently used plan was not evicted")
	}
	if recent, err := a.Submit("t", program(planCacheCapacity)); err != nil {
		t.Fatal(err)
	} else if recent.plan != last.plan {
		t.Fatal("the most recently used plan was evicted")
	}
	if slices.Compare(evicted.CandidateNames(), first.CandidateNames()) != 0 {
		t.Fatal("a rebuilt plan names other candidates")
	}

	b := NewScheduler(NewSimTrainer(nil, 1), nil, "")
	other, err := b.Submit("t", program(0))
	if err != nil {
		t.Fatal(err)
	}
	if other.plan == evicted.plan || priorOf(other) == priorOf(evicted) {
		t.Fatal("two schedulers share a plan")
	}
}

// TestConcurrentSubmitsShareOnePlan: submissions of one new program racing
// on an empty cache may each build a plan, but the first insert wins and
// every job ends up holding it.
func TestConcurrentSubmitsShareOnePlan(t *testing.T) {
	sc := NewScheduler(NewSimTrainer(nil, 1), nil, "")
	const n = 8
	jobs := make([]*Job, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			jobs[i], errs[i] = sc.Submit(fmt.Sprintf("t%d", i), footprintProgram)
		}()
	}
	wg.Wait()
	for i := range n {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if jobs[i].plan != jobs[0].plan || priorOf(jobs[i]) != priorOf(jobs[0]) {
			t.Fatalf("%s holds a plan of its own", jobs[i].ID)
		}
	}
}
