package engine_test

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/server"
	"repro/internal/storage"
	"repro/internal/templates"
)

const imgProgram = "{input: {[Tensor[8, 8, 3]], []}, output: {[Tensor[2]], []}}"
const tsProgram = "{input: {[Tensor[4]], [next]}, output: {[Tensor[2]], []}}"

// newLoadedScheduler builds a scheduler with a SimTrainer and a mixed job
// set, returning the scheduler, its trainer and the total candidate count.
func newLoadedScheduler(t testing.TB, jobs int, delay time.Duration) (*server.Scheduler, *server.SimTrainer, int) {
	t.Helper()
	pool := cluster.NewPool(24, 0.35)
	trainer := server.NewSimTrainer(pool, 42)
	trainer.Devices = 8
	trainer.Delay = delay
	sc := server.NewScheduler(trainer, nil, "")
	total := 0
	for i := 0; i < jobs; i++ {
		prog := imgProgram
		if i%2 == 1 {
			prog = tsProgram
		}
		job, err := sc.Submit(fmt.Sprintf("job-%d", i), prog)
		if err != nil {
			t.Fatal(err)
		}
		total += len(job.Candidates)
	}
	return sc, trainer, total
}

func TestEngineExhaustsAllCandidatesExactlyOnce(t *testing.T) {
	sc, _, total := newLoadedScheduler(t, 4, 0)
	eng := engine.New(sc, sc.Trainer(), 8)
	if err := eng.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := sc.Rounds(); got != total {
		t.Errorf("completed %d rounds, want %d", got, total)
	}
	if sc.InFlight() != 0 {
		t.Errorf("%d leases still outstanding after drain", sc.InFlight())
	}
	m := eng.Status()
	if m.Completed != int64(total) || m.InFlight != 0 || m.Running {
		t.Errorf("metrics %+v, want %d completed, idle", m, total)
	}
	var items int64
	for _, w := range m.PerWorker {
		items += w.Items
	}
	if items != int64(total) {
		t.Errorf("per-worker items sum to %d, want %d", items, total)
	}
	// Exactly-once: every job's model records are unique and complete.
	for _, job := range sc.Jobs() {
		st, err := sc.Status(job.ID)
		if err != nil {
			t.Fatal(err)
		}
		if st.Trained != st.NumCandidates {
			t.Errorf("job %s trained %d of %d", job.ID, st.Trained, st.NumCandidates)
		}
		seen := map[string]bool{}
		for _, m := range st.Models {
			if seen[m.Name] {
				t.Errorf("job %s trained %q twice", job.ID, m.Name)
			}
			seen[m.Name] = true
		}
	}
}

func TestEngineRerunAfterDrain(t *testing.T) {
	sc, _, total := newLoadedScheduler(t, 2, 0)
	eng := engine.New(sc, sc.Trainer(), 4)
	if err := eng.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	// A drained engine can run again: no work, immediate clean exit.
	if err := eng.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if sc.Rounds() != total {
		t.Errorf("second run changed rounds to %d, want %d", sc.Rounds(), total)
	}
}

func TestEngineMatchesSerialBestRecords(t *testing.T) {
	mk := func(devices int) *server.Scheduler {
		pool := cluster.NewPool(24, 0.35)
		trainer := server.NewSimTrainer(pool, 7)
		trainer.Devices = devices
		sc := server.NewScheduler(trainer, nil, "")
		for _, prog := range []string{imgProgram, tsProgram, imgProgram} {
			if _, err := sc.Submit("j", prog); err != nil {
				t.Fatal(err)
			}
		}
		return sc
	}
	serial := mk(0)
	if _, err := serial.RunRounds(1 << 20); err != nil {
		t.Fatal(err)
	}
	parallel := mk(8)
	eng := engine.New(parallel, parallel.Trainer(), 8)
	if err := eng.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	for _, job := range serial.Jobs() {
		a, err := serial.Status(job.ID)
		if err != nil {
			t.Fatal(err)
		}
		b, err := parallel.Status(job.ID)
		if err != nil {
			t.Fatal(err)
		}
		if a.Best == nil || b.Best == nil {
			t.Fatalf("job %s missing best: %v vs %v", job.ID, a.Best, b.Best)
		}
		if a.Best.Name != b.Best.Name || a.Best.Accuracy != b.Best.Accuracy || a.Best.Cost != b.Best.Cost {
			t.Errorf("job %s best diverged: serial %+v vs engine %+v", job.ID, *a.Best, *b.Best)
		}
	}
}

func TestEngineDrainOnStop(t *testing.T) {
	sc, _, total := newLoadedScheduler(t, 2, 2*time.Millisecond)
	eng := engine.New(sc, sc.Trainer(), 4)
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	if err := eng.Start(); err == nil {
		t.Error("second Start while running should fail")
	}
	// Let some trainings complete, then stop mid-flight.
	deadline := time.Now().Add(5 * time.Second)
	for sc.Rounds() < 3 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if err := eng.Stop(); err != nil {
		t.Fatal(err)
	}
	if eng.Running() {
		t.Error("engine still running after Stop")
	}
	if sc.InFlight() != 0 {
		t.Errorf("%d leases leaked by stop", sc.InFlight())
	}
	m := eng.Status()
	if int(m.Completed) != sc.Rounds() {
		t.Errorf("engine completed %d vs scheduler rounds %d", m.Completed, sc.Rounds())
	}
	if sc.Rounds() >= total {
		t.Fatalf("stop happened after all %d rounds; delay too short to test drain", total)
	}
	// Resume and finish: released leases must be reschedulable, and nothing
	// may be trained twice (Complete would error, Observe would panic).
	sc.Trainer().(*server.SimTrainer).Delay = 0
	eng2 := engine.New(sc, sc.Trainer(), 4)
	if err := eng2.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if sc.Rounds() != total {
		t.Errorf("resumed run finished at %d rounds, want %d", sc.Rounds(), total)
	}
}

// countingTrainer counts Train calls per (job, candidate).
type countingTrainer struct {
	server.Trainer
	mu     sync.Mutex
	trains map[string]int
}

func (c *countingTrainer) Train(jobID string, cand templates.Candidate) (float64, float64, error) {
	c.mu.Lock()
	c.trains[jobID+"/"+cand.Name()]++
	c.mu.Unlock()
	return c.Trainer.Train(jobID, cand)
}

// Each worker holds at most one lease: a sampler polling the scheduler's
// lease table through a drain with a slow trainer never sees more than W.
func TestEngineHoldsAtMostWorkersLeases(t *testing.T) {
	const workers = 4
	sc, _, total := newLoadedScheduler(t, 2, time.Millisecond)
	eng := engine.New(sc, sc.Trainer(), workers)
	done := make(chan struct{})
	peak := make(chan int)
	go func() {
		most := 0
		for {
			select {
			case <-done:
				peak <- most
				return
			default:
			}
			most = max(most, sc.InFlight())
			time.Sleep(50 * time.Microsecond)
		}
	}()
	err := eng.Drain(context.Background())
	close(done)
	most := <-peak
	if err != nil {
		t.Fatal(err)
	}
	if sc.Rounds() != total {
		t.Errorf("drained %d rounds, want %d", sc.Rounds(), total)
	}
	if most == 0 || most > workers {
		t.Errorf("sampler saw at most %d leases in flight, want 1..%d", most, workers)
	}
}

// A Stop that lands during a Drain interrupts it with every lease settled:
// nothing is left in the scheduler's table, every run was settled, and no
// candidate trained twice.
func TestEngineStopDuringDrain(t *testing.T) {
	sc, _, total := newLoadedScheduler(t, 2, 2*time.Millisecond)
	counting := &countingTrainer{Trainer: sc.Trainer(), trains: map[string]int{}}
	eng := engine.New(sc, counting, 4)
	drained := make(chan error, 1)
	go func() { drained <- eng.Drain(context.Background()) }()
	deadline := time.Now().Add(5 * time.Second)
	for sc.Rounds() < 3 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if err := eng.Stop(); err != nil {
		t.Fatal(err)
	}
	if err := <-drained; !errors.Is(err, engine.ErrInterrupted) {
		t.Fatalf("stopped drain returned %v, want ErrInterrupted", err)
	}
	if sc.InFlight() != 0 {
		t.Errorf("%d leases left in flight by the stop", sc.InFlight())
	}
	if sc.Rounds() >= total {
		t.Fatalf("stop happened after all %d rounds; delay too short to test it", total)
	}
	runs := 0
	for cand, n := range counting.trains {
		runs += n
		if n > 1 {
			t.Errorf("%s trained %d times", cand, n)
		}
	}
	if m := eng.Status(); runs != sc.Rounds() || m.Completed != int64(runs) || m.InFlight != 0 {
		t.Errorf("%d runs, %d rounds, status %+v: every run must settle as one completion", runs, sc.Rounds(), m)
	}
}

// A snapshot taken mid-flight restores exactly: Compact races live settles
// while the engine has leases in flight, and must lose nothing and retrain
// nothing. The process is then abandoned without Close, recovered into a
// fresh scheduler and drained; the second engine trains exactly the
// candidates the first one had not settled.
func TestEngineSnapshotRestoreMidFlight(t *testing.T) {
	dir := t.TempDir()
	mk := func(delay time.Duration) *server.Scheduler {
		pool := cluster.NewPool(24, 0.35)
		trainer := server.NewSimTrainer(pool, 42)
		trainer.Devices = 8
		trainer.Delay = delay
		sc := server.NewScheduler(trainer, nil, "")
		if _, _, err := sc.Recover(dir, storage.LogOptions{}); err != nil {
			t.Fatal(err)
		}
		return sc
	}
	sc := mk(time.Millisecond)
	total := 0
	for i := 0; i < 3; i++ {
		prog := imgProgram
		if i%2 == 1 {
			prog = tsProgram
		}
		job, err := sc.Submit(fmt.Sprintf("job-%d", i), prog)
		if err != nil {
			t.Fatal(err)
		}
		total += len(job.Candidates)
	}
	eng := engine.New(sc, sc.Trainer(), 8)
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	// The workers' runs all take the same 1 ms, so they can settle in the
	// same instant: compact right after a sample that saw leases out.
	inFlight := 0
	for deadline := time.Now().Add(5 * time.Second); inFlight == 0 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
		if sc.Rounds() >= 5 {
			inFlight = sc.InFlight()
		}
	}
	if inFlight == 0 {
		t.Fatal("no leases in flight at the compaction")
	}
	if err := sc.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := eng.Stop(); err != nil {
		t.Fatal(err)
	}
	settled := sc.Rounds()
	if settled >= total {
		t.Fatalf("first engine finished all %d rounds; delay too short to test a mid-flight compaction", total)
	}
	// Abandon sc and its log: no Close, no second Compact.

	fresh := mk(0)
	if got := fresh.Rounds(); got != settled {
		t.Fatalf("recovered %d rounds, the abandoned process had settled %d", got, settled)
	}
	// Every job comes back as the abandoned process left it: its status,
	// and what HYBRID ranks it by, bit for bit. A settle that appended
	// before it changed memory could fall under the checkpoint's horizon
	// without being in the capture, and would be missing here.
	for _, job := range sc.Jobs() {
		want, err := sc.Status(job.ID)
		if err != nil {
			t.Fatal(err)
		}
		got, err := fresh.Status(job.ID)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("recovered status of %s diverged:\nlive: %+v\nrec:  %+v", job.ID, want, got)
		}
		fj, _ := fresh.Job(job.ID) // its status matched, so it exists
		// %x prints each float in exact hexadecimal: equal strings, equal bits.
		if g, w := fmt.Sprintf("%x", fj.Scalars()), fmt.Sprintf("%x", job.Scalars()); g != w {
			t.Errorf("recovered scalars of %s diverged:\nlive: %s\nrec:  %s", job.ID, w, g)
		}
	}
	eng2 := engine.New(fresh, fresh.Trainer(), 8)
	if err := eng2.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if fresh.Rounds() != total {
		t.Errorf("recovered run finished at %d rounds, want %d", fresh.Rounds(), total)
	}
	if got := int(eng2.Status().Completed); got != total-settled {
		t.Errorf("fresh engine trained %d, want %d (the unsettled remainder)", got, total-settled)
	}
}

// flakyTrainer fails its first N Train calls, then delegates to an inner
// trainer, exercising the engine's release-and-retry path.
type flakyTrainer struct {
	inner    server.Trainer
	failures atomic.Int64
	budget   int64
}

func (f *flakyTrainer) Train(jobID string, c templates.Candidate) (float64, float64, error) {
	if f.failures.Add(1) <= f.budget {
		return 0, 0, fmt.Errorf("flaky: injected failure for %s/%s", jobID, c.Name())
	}
	return f.inner.Train(jobID, c)
}

func (f *flakyTrainer) EstimateCost(jobID string, c templates.Candidate) (float64, error) {
	return f.inner.EstimateCost(jobID, c)
}

func TestEngineSurvivesTrainerErrors(t *testing.T) {
	sc, trainer, total := newLoadedScheduler(t, 2, 0)
	flaky := &flakyTrainer{inner: trainer, budget: 5}
	eng := engine.New(sc, flaky, 4)
	if err := eng.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	m := eng.Status()
	if m.Errors != 5 {
		t.Errorf("expected 5 recorded errors, got %d", m.Errors)
	}
	// Each failure either releases the lease for retry or (at the retry
	// budget on one arm) abandons the candidate.
	if m.Released < 3 {
		t.Errorf("expected ≥3 released leases, got %d", m.Released)
	}
	if got := sc.Rounds() + int(m.Abandoned); got != total {
		t.Errorf("rounds %d + abandoned %d = %d, want %d", sc.Rounds(), m.Abandoned, got, total)
	}
}

// brokenCandidateTrainer permanently fails one candidate by name.
type brokenCandidateTrainer struct {
	inner  server.Trainer
	broken string
}

func (b *brokenCandidateTrainer) Train(jobID string, c templates.Candidate) (float64, float64, error) {
	if c.Name() == b.broken {
		return 0, 0, fmt.Errorf("broken: %s never trains", b.broken)
	}
	return b.inner.Train(jobID, c)
}

func (b *brokenCandidateTrainer) EstimateCost(jobID string, c templates.Candidate) (float64, error) {
	return b.inner.EstimateCost(jobID, c)
}

// A candidate that always fails must not livelock the engine: at the
// scheduler's retry budget (3) it is abandoned — retired from selection
// with no fabricated observation — and the drain finishes without it.
func TestEngineGivesUpOnPermanentlyFailingCandidate(t *testing.T) {
	sc, trainer, total := newLoadedScheduler(t, 1, 0)
	broken := sc.Jobs()[0].Candidates[0].Name()
	eng := engine.New(sc, &brokenCandidateTrainer{inner: trainer, broken: broken}, 4)
	done := make(chan error, 1)
	go func() { done <- eng.Drain(context.Background()) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("engine livelocked on a permanently failing candidate")
	}
	if sc.Rounds() != total-1 {
		t.Fatalf("finished at %d rounds, want %d (all but the broken candidate)", sc.Rounds(), total-1)
	}
	m := eng.Status()
	if m.Errors != 3 {
		t.Errorf("errors %d, want exactly the retry budget, 3", m.Errors)
	}
	if m.Abandoned != 1 {
		t.Errorf("abandoned %d, want 1", m.Abandoned)
	}
	st, err := sc.Status(sc.Jobs()[0].ID)
	if err != nil {
		t.Fatal(err)
	}
	// No fabricated record: the broken candidate is absent from the model
	// history, and every other candidate trained.
	for _, rec := range st.Models {
		if rec.Name == broken {
			t.Errorf("abandoned candidate %q has a model record: %+v", broken, rec)
		}
	}
	if st.Trained != st.NumCandidates-1 {
		t.Errorf("trained %d of %d, want all but the broken one", st.Trained, st.NumCandidates)
	}
	if st.Best == nil || st.Best.Name == broken {
		t.Errorf("best %+v", st.Best)
	}
}

func TestEngineMetricsAndVirtualTime(t *testing.T) {
	pool := cluster.NewPool(24, 0.35)
	trainer := server.NewSimTrainer(pool, 42)
	trainer.Devices = 8
	sc := server.NewScheduler(trainer, nil, "")
	if _, err := sc.Submit("a", imgProgram); err != nil {
		t.Fatal(err)
	}
	eng := engine.New(sc, trainer, 8)
	if err := eng.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	// A clean drain: every candidate completed, nothing handed back, failed
	// or left behind, and the workers' busy time adds up to a utilization.
	total := int64(len(sc.Jobs()[0].Candidates))
	m := eng.Status()
	if m.Completed != total || m.Released != 0 || m.Abandoned != 0 || m.Errors != 0 {
		t.Errorf("metrics after a clean drain: %+v, want %d completed and nothing else", m, total)
	}
	if m.Running || m.InFlight != 0 {
		t.Errorf("engine not idle after the drain: %+v", m)
	}
	if m.Workers != 8 || len(m.PerWorker) != 8 || m.Uptime <= 0 || m.Utilization <= 0 || m.Utilization > 1 {
		t.Errorf("worker accounting: %+v", m)
	}
	// Multi-device accounting: 8 devices overlap, so the makespan must beat
	// the serialized single-device baseline on a pool that scales sublinearly.
	makespan, baseline := pool.Makespan(), pool.SingleDeviceTime()
	if makespan <= 0 || baseline <= 0 {
		t.Fatalf("virtual times %g / %g", makespan, baseline)
	}
	// Typically ~2.3x; the exact figure depends on the nondeterministic
	// completion order (which shapes later picks), so assert with margin.
	if speedup := baseline / makespan; speedup < 1.8 {
		t.Errorf("virtual-time speedup %.2fx, want ≥1.8x at 8 workers on a 24-GPU α=0.35 pool", speedup)
	}
}
