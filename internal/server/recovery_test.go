package server

import (
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bandit"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/gp"
	"repro/internal/linalg"
	"repro/internal/storage"
)

const (
	recoveryTSProgram  = "{input: {[Tensor[4]], [next]}, output: {[Tensor[2]], []}}"
	recoveryImgProgram = "{input: {[Tensor[8, 8, 3]], []}, output: {[Tensor[2]], []}}"
)

func newDurableScheduler(t testing.TB, dir string) (*Scheduler, *storage.Log) {
	return newDurableSchedulerOpts(t, dir, storage.LogOptions{})
}

func newDurableSchedulerOpts(t testing.TB, dir string, opts storage.LogOptions) (*Scheduler, *storage.Log) {
	t.Helper()
	pool := cluster.NewPool(8, 0.9)
	sc := NewScheduler(NewSimTrainer(pool, 42), nil, "http://test:9000")
	log, rec, err := storage.OpenDirOptions(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := sc.Recover(rec, log); err != nil {
		t.Fatal(err)
	}
	return sc, log
}

func drain(t testing.TB, sc *Scheduler) int {
	t.Helper()
	ran, err := sc.RunRounds(10000)
	if err != nil {
		t.Fatal(err)
	}
	return ran
}

func bestByJob(t testing.TB, sc *Scheduler) map[string]storage.ModelRecord {
	t.Helper()
	out := make(map[string]storage.ModelRecord)
	for _, j := range sc.Jobs() {
		st, err := sc.Status(j.ID)
		if err != nil {
			t.Fatal(err)
		}
		if st.Best != nil {
			out[j.ID] = *st.Best
		}
	}
	return out
}

// The acceptance test of the durability refactor: a scheduler killed
// mid-round — with leases in flight and no clean shutdown — must recover
// all jobs, examples and recorded models from WAL + snapshot, re-queue the
// in-flight work, and end up (after draining) with exactly the best models
// an uninterrupted run finds.
func TestCrashRecoveryMatchesUninterruptedRun(t *testing.T) {
	dir := t.TempDir()

	// Uninterrupted reference run (same trainer seed, no persistence).
	ref := NewScheduler(NewSimTrainer(cluster.NewPool(8, 0.9), 42), nil, "http://test:9000")
	refA, err := ref.Submit("a", recoveryTSProgram)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ref.Submit("b", recoveryTSProgram); err != nil {
		t.Fatal(err)
	}
	if _, err := ref.Feed(refA.ID, []float64{1, 2, 3, 4}, []float64{0, 1}); err != nil {
		t.Fatal(err)
	}
	refRounds := drain(t, ref)
	refBest := bestByJob(t, ref)

	// Durable run, crashed mid-round.
	sc1, _ := newDurableScheduler(t, dir)
	jobA, err := sc1.Submit("a", recoveryTSProgram)
	if err != nil {
		t.Fatal(err)
	}
	jobB, err := sc1.Submit("b", recoveryTSProgram)
	if err != nil {
		t.Fatal(err)
	}
	exID, err := sc1.Feed(jobA.ID, []float64{1, 2, 3, 4}, []float64{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sc1.RunRounds(3); err != nil {
		t.Fatal(err)
	}
	if err := sc1.Refine(jobA.ID, exID, false); err != nil {
		t.Fatal(err)
	}
	// Leases in flight at the moment of the crash: their results are lost,
	// but the work itself must be re-queued after recovery.
	inFlight, err := sc1.PickWork(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(inFlight) == 0 {
		t.Fatal("no leases picked before crash")
	}
	// Crash: sc1 and its log are abandoned without Close or Compact.

	sc2, _ := newDurableScheduler(t, dir)
	jobs := sc2.Jobs()
	if len(jobs) != 2 || jobs[0].ID != jobA.ID || jobs[1].ID != jobB.ID {
		t.Fatalf("recovered jobs %v", jobs)
	}
	if got := len(jobs[0].Candidates); got != len(jobA.Candidates) {
		t.Fatalf("recovered %d candidates, want %d", got, len(jobA.Candidates))
	}
	stA, err := sc2.Status(jobA.ID)
	if err != nil {
		t.Fatal(err)
	}
	if stA.Examples != 1 || stA.Enabled != 0 {
		t.Errorf("recovered example state %+v", stA)
	}
	if sc2.Rounds() != 3 {
		t.Errorf("recovered %d rounds, want 3", sc2.Rounds())
	}
	if sc2.InFlight() != 0 {
		t.Errorf("recovered %d in-flight leases, want 0 (re-queued)", sc2.InFlight())
	}
	// The crashed process's in-flight arms are selectable again.
	relisted, err := sc2.PickWork(len(inFlight))
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range relisted {
		if err := sc2.Release(l); err != nil {
			t.Fatal(err)
		}
	}
	if len(relisted) != len(inFlight) {
		t.Errorf("re-leased %d work items, want %d", len(relisted), len(inFlight))
	}

	// A fresh submission after recovery must not collide with recovered ids.
	jobC, err := sc2.Submit("c", recoveryTSProgram)
	if err != nil {
		t.Fatal(err)
	}
	if jobC.ID == jobA.ID || jobC.ID == jobB.ID {
		t.Fatalf("recovered scheduler reused id %s", jobC.ID)
	}

	// Resume to exhaustion: jobs a and b must land on the reference bests.
	resumed := drain(t, sc2)
	if got := 3 + resumed; got < refRounds {
		t.Errorf("crashed+resumed run trained %d candidates, reference %d", got, refRounds)
	}
	gotBest := bestByJob(t, sc2)
	for id, want := range refBest {
		got, ok := gotBest[id]
		if !ok {
			t.Errorf("job %s has no best model after recovery", id)
			continue
		}
		if got.Name != want.Name || got.Accuracy != want.Accuracy {
			t.Errorf("job %s best = %s@%g after recovery, want %s@%g",
				id, got.Name, got.Accuracy, want.Name, want.Accuracy)
		}
	}
}

// A crash after compaction recovers from snapshot + WAL tail.
func TestRecoveryAfterCompaction(t *testing.T) {
	dir := t.TempDir()
	sc1, _ := newDurableScheduler(t, dir)
	jobA, err := sc1.Submit("a", recoveryTSProgram)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sc1.Feed(jobA.ID, []float64{1, 2, 3, 4}, []float64{0, 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := sc1.RunRounds(2); err != nil {
		t.Fatal(err)
	}
	if err := sc1.Compact(); err != nil {
		t.Fatal(err)
	}
	// Post-compaction mutations live only in the WAL tail.
	if _, err := sc1.Feed(jobA.ID, []float64{5, 6, 7, 8}, []float64{1, 0}); err != nil {
		t.Fatal(err)
	}
	if _, err := sc1.RunRounds(2); err != nil {
		t.Fatal(err)
	}
	// Crash without Close.

	sc2, _ := newDurableScheduler(t, dir)
	st, err := sc2.Status(jobA.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.Examples != 2 {
		t.Errorf("recovered %d examples, want 2", st.Examples)
	}
	if st.Trained != 4 {
		t.Errorf("recovered %d trained models, want 4", st.Trained)
	}
	if sc2.Rounds() != 4 {
		t.Errorf("recovered %d rounds, want 4", sc2.Rounds())
	}
}

// Crash-recovery equivalence across segment rolls: the same workload on a
// log forced through many tiny segments must recover to exactly the state
// a single-segment (default) run recovers to.
func TestCrashRecoveryAcrossSegmentRoll(t *testing.T) {
	tiny := storage.LogOptions{SegmentBytes: 512}
	workload := func(t *testing.T, sc *Scheduler) string {
		t.Helper()
		job, err := sc.Submit("a", recoveryTSProgram)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 12; i++ {
			if _, err := sc.Feed(job.ID, []float64{1, 2, 3, float64(i)}, []float64{0, 1}); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := sc.RunRounds(3); err != nil {
			t.Fatal(err)
		}
		return job.ID
	}

	refDir, tinyDir := t.TempDir(), t.TempDir()
	refSC, _ := newDurableScheduler(t, refDir)
	refID := workload(t, refSC)
	tinySC, tinyLog := newDurableSchedulerOpts(t, tinyDir, tiny)
	tinyID := workload(t, tinySC)
	if st := tinyLog.Stats(); st.Segments < 2 {
		t.Fatalf("workload stayed in %d segment(s); raise the event count", st.Segments)
	}
	// Crash both without Close.

	refSC2, _ := newDurableScheduler(t, refDir)
	tinySC2, _ := newDurableSchedulerOpts(t, tinyDir, tiny)
	refSt, err := refSC2.Status(refID)
	if err != nil {
		t.Fatal(err)
	}
	tinySt, err := tinySC2.Status(tinyID)
	if err != nil {
		t.Fatal(err)
	}
	if refSt.Examples != tinySt.Examples || refSt.Trained != tinySt.Trained || refSt.Enabled != tinySt.Enabled {
		t.Errorf("segmented recovery diverged: tiny %+v vs reference %+v", tinySt, refSt)
	}
	if refSC2.Rounds() != tinySC2.Rounds() {
		t.Errorf("recovered rounds %d (tiny) vs %d (reference)", tinySC2.Rounds(), refSC2.Rounds())
	}
	refBest, tinyBest := bestByJob(t, refSC2), bestByJob(t, tinySC2)
	if rb, ok := refBest[refID]; ok {
		tb := tinyBest[tinyID]
		if tb.Name != rb.Name || tb.Accuracy != rb.Accuracy {
			t.Errorf("best after segmented recovery %s@%g, want %s@%g", tb.Name, tb.Accuracy, rb.Name, rb.Accuracy)
		}
	}
}

// A crash after a full compaction over many sealed segments recovers from
// the snapshot plus the segments written after it; the compaction retires
// every segment it covers.
func TestRecoveryAfterCompactionAcrossSegments(t *testing.T) {
	dir := t.TempDir()
	tiny := storage.LogOptions{SegmentBytes: 512}
	sc1, log1 := newDurableSchedulerOpts(t, dir, tiny)
	job, err := sc1.Submit("a", recoveryTSProgram)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		if _, err := sc1.Feed(job.ID, []float64{1, 2, 3, float64(i)}, []float64{0, 1}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := sc1.RunRounds(2); err != nil {
		t.Fatal(err)
	}
	if log1.Stats().Segments < 3 {
		t.Fatalf("workload stayed in %d segments; raise the event count", log1.Stats().Segments)
	}
	if err := sc1.Compact(); err != nil {
		t.Fatal(err)
	}
	if got := log1.Stats().Segments; got != 1 {
		t.Errorf("%d segments after Compact, want 1 (every covered segment retired)", got)
	}
	// Mutations after the compaction live in the new segments only.
	// Mutations after the step live in the surviving segments only.
	if _, err := sc1.Feed(job.ID, []float64{9, 9, 9, 9}, []float64{1, 0}); err != nil {
		t.Fatal(err)
	}
	if _, err := sc1.RunRounds(2); err != nil {
		t.Fatal(err)
	}
	// Crash without Close.

	sc2, _ := newDurableSchedulerOpts(t, dir, tiny)
	st, err := sc2.Status(job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.Examples != 13 {
		t.Errorf("recovered %d examples, want 13", st.Examples)
	}
	if st.Trained != 4 {
		t.Errorf("recovered %d trained models, want 4", st.Trained)
	}
	if sc2.Rounds() != 4 {
		t.Errorf("recovered %d rounds, want 4", sc2.Rounds())
	}
}

// An ill-conditioned posterior update fails the one job, not the server:
// the job is retired from scheduling, other jobs keep training.
func TestObserveFailureRetiresJobOnly(t *testing.T) {
	pool := cluster.NewPool(8, 0.9)
	sc := NewScheduler(NewSimTrainer(pool, 42), nil, "http://test:9000")
	sick, err := sc.Submit("sick", recoveryTSProgram)
	if err != nil {
		t.Fatal(err)
	}
	healthy, err := sc.Submit("healthy", recoveryTSProgram)
	if err != nil {
		t.Fatal(err)
	}

	// Replace the sick job's bandit with one whose prior is grossly
	// indefinite: the first observation factorizes (1×1), the second
	// cannot, even after jitter escalation.
	bad := linalg.NewMatrixFromRows([][]float64{{1, 100}, {100, 1}})
	process := gp.New(bad, 1e-6)
	b := bandit.New(process, bandit.Config{Costs: []float64{1, 1}})
	sick.mu.Lock()
	sick.tenant = core.NewTenant(0, sick.ID, b)
	sick.mu.Unlock()

	// Lease every selectable arm at once, keep one for the target job and
	// hand the rest back (a batch-of-one would spin: deterministic pickers
	// re-pick the same other-job arm after a release).
	completeOne := func(jobID string) error {
		leases, err := sc.PickWork(100)
		if err != nil {
			return err
		}
		var target *Lease
		for _, l := range leases {
			if l.JobID == jobID && target == nil {
				target = l
				continue
			}
			if err := sc.Release(l); err != nil {
				return err
			}
		}
		if target == nil {
			return fmt.Errorf("no work for %s", jobID)
		}
		return sc.Complete(target, 0.5, 1)
	}
	if err := completeOne(sick.ID); err != nil {
		t.Fatalf("first observation should succeed: %v", err)
	}
	if err := completeOne(sick.ID); err == nil {
		t.Fatal("second observation on an indefinite prior should fail the job")
	}
	st, err := sc.Status(sick.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.Failed == "" {
		t.Error("failed job not marked in status")
	}
	// The failed job is out of the rotation; the healthy one drains fully.
	ran := drain(t, sc)
	if ran == 0 {
		t.Fatal("healthy job did not continue after sibling failure")
	}
	hst, err := sc.Status(healthy.ID)
	if err != nil {
		t.Fatal(err)
	}
	if hst.Trained != hst.NumCandidates {
		t.Errorf("healthy job trained %d of %d candidates", hst.Trained, hst.NumCandidates)
	}
	if hst.Failed != "" {
		t.Errorf("healthy job marked failed: %s", hst.Failed)
	}
}

// lockedScheduler reproduces the pre-refactor locking discipline — one
// global mutex across every scheduler entry point — as the benchmark
// baseline for BenchmarkPickWorkContention.
type lockedScheduler struct {
	mu sync.Mutex
	sc *Scheduler
}

func (g *lockedScheduler) Feed(jobID string, in, out []float64) (int, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.sc.Feed(jobID, in, out)
}

func (g *lockedScheduler) PickWork(n int) ([]*Lease, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.sc.PickWork(n)
}

func (g *lockedScheduler) Release(l *Lease) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.sc.Release(l)
}

// schedulerOps is the surface the contention benchmark drives.
type schedulerOps interface {
	Feed(jobID string, in, out []float64) (int, error)
	PickWork(n int) ([]*Lease, error)
	Release(l *Lease) error
}

// BenchmarkPickWorkContention measures the throughput of the user-facing
// Feed/Status paths while a scheduler loop continuously leases and
// releases work — the mixed workload the per-job locking discipline
// exists for. Under the old global mutex every Feed waits behind the
// picker's GP posterior math; with per-job locks the two sides share no
// lock at all. Leases are released, not completed, so the candidate pool
// never exhausts and every picker pass pays full price.
func BenchmarkPickWorkContention(b *testing.B) {
	setup := func(b *testing.B) (*Scheduler, []string) {
		b.Helper()
		pool := cluster.NewPool(8, 0.9)
		sc := NewScheduler(NewSimTrainer(pool, 42), nil, "http://test:9000")
		var ids []string
		for i := 0; i < 4; i++ {
			job, err := sc.Submit(fmt.Sprintf("bench-%d", i), recoveryTSProgram)
			if err != nil {
				b.Fatal(err)
			}
			ids = append(ids, job.ID)
		}
		return sc, ids
	}
	run := func(b *testing.B, ops schedulerOps, ids []string) {
		b.Helper()
		// Background scheduler side: picker passes at a fixed cadence, so
		// both locking disciplines do the same scheduling work and the
		// measured difference is purely how much that work blocks the
		// user side. (An unpaced hot loop would instead measure mutex
		// starvation: under one global mutex the feed goroutines barge
		// and the picker hardly runs at all.)
		stop := make(chan struct{})
		var passes atomic.Int64
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				leases, err := ops.PickWork(8)
				if err != nil {
					b.Error(err)
					return
				}
				for _, l := range leases {
					if err := ops.Release(l); err != nil {
						b.Error(err)
						return
					}
				}
				passes.Add(1)
				time.Sleep(200 * time.Microsecond)
			}
		}()

		// The measured side is the O(1) user write path: anything heavier
		// (Status copies all examples) would measure store growth, not
		// lock contention.
		var ctr atomic.Int64
		in := []float64{1, 2, 3, 4}
		out := []float64{0, 1}
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				n := ctr.Add(1)
				id := ids[int(n)%len(ids)]
				if _, err := ops.Feed(id, in, out); err != nil {
					b.Error(err)
					return
				}
			}
		})
		b.StopTimer()
		close(stop)
		wg.Wait()
		if secs := b.Elapsed().Seconds(); secs > 0 {
			b.ReportMetric(float64(passes.Load())/secs, "picks/s")
		}
	}
	b.Run("global-lock", func(b *testing.B) {
		sc, ids := setup(b)
		run(b, &lockedScheduler{sc: sc}, ids)
	})
	b.Run("per-job-locks", func(b *testing.B) {
		sc, ids := setup(b)
		run(b, sc, ids)
	})
}

// Settles of one job racing each other must reach the WAL in the order the
// live state absorbed them: recovery replays WAL order, so any inversion
// shows up as a different model list, observation sequence or cost sum. Every
// arm of one job is leased, all are settled at once against a real WAL, and
// the crash image must recover to the identical Status.
func TestConcurrentSettlesOfOneJobRecoverInOrder(t *testing.T) {
	trials := 8
	if testing.Short() {
		trials = 3
	}
	for trial := 0; trial < trials; trial++ {
		dir := t.TempDir()
		sc, _ := newDurableScheduler(t, dir)
		job, err := sc.Submit("a", recoveryImgProgram)
		if err != nil {
			t.Fatal(err)
		}
		leases, err := sc.PickWork(len(job.Candidates))
		if err != nil || len(leases) != len(job.Candidates) {
			t.Fatalf("leased %d of %d arms: %v", len(leases), len(job.Candidates), err)
		}
		start := make(chan struct{})
		var wg sync.WaitGroup
		for i, l := range leases {
			wg.Add(1)
			go func(i int, l *Lease) {
				defer wg.Done()
				<-start
				if err := sc.Complete(l, 0.3+0.02*float64(i), 1+float64(i)); err != nil {
					t.Errorf("complete %s: %v", l.Candidate.Name(), err)
				}
			}(i, l)
		}
		close(start)
		wg.Wait()
		checkIndexConsistent(t, sc)
		live, err := sc.Status(job.ID)
		if err != nil {
			t.Fatal(err)
		}
		for i, m := range live.Models {
			if m.Round != i+1 {
				t.Fatalf("trial %d: live model %d has round %d; the store is out of round order", trial, i, m.Round)
			}
		}

		// Crash: no Close, no Compact.
		sc2, _ := newDurableScheduler(t, dir)
		rec, err := sc2.Status(job.ID)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(rec, live) {
			t.Fatalf("trial %d: recovered status diverged:\nlive: %+v\nrec:  %+v", trial, live, rec)
		}
	}
}
