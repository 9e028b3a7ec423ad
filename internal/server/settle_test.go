package server

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/templates"
)

// failingTrainer fails every Train call fail returns true for and
// delegates the rest. Schedulers are built over the SimTrainer (Submit
// registers jobs with it) and the wrapper is swapped in afterwards.
type failingTrainer struct {
	Trainer
	fail func(jobID string, c templates.Candidate) bool
}

func (f *failingTrainer) Train(jobID string, c templates.Candidate) (float64, float64, error) {
	if f.fail(jobID, c) {
		return 0, 0, fmt.Errorf("injected failure for %s/%s", jobID, c.Name())
	}
	return f.Trainer.Train(jobID, c)
}

func tallySize(sc *Scheduler) int {
	sc.coordMu.Lock()
	defer sc.coordMu.Unlock()
	return len(sc.failCounts)
}

func tallyOf(sc *Scheduler, l *Lease) int {
	sc.coordMu.Lock()
	defer sc.coordMu.Unlock()
	return sc.failCounts[failKey{l.JobID, l.Arm}]
}

// Settle is the one place a run's outcome is turned into a lease's fate.
func TestSettle(t *testing.T) {
	runErr := errors.New("run failed")
	// grantTop leases the single top candidate of a fresh one-job scheduler
	// that has already failed `failed` times.
	grantTop := func(t *testing.T, failed int) (*Scheduler, *Lease) {
		t.Helper()
		sc := NewScheduler(NewSimTrainer(cluster.NewPool(8, 0.9), 42), nil, "http://test:9000")
		if _, err := sc.Submit("a", recoveryTSProgram); err != nil {
			t.Fatal(err)
		}
		for i := 0; ; i++ {
			ls, err := sc.Grant(1, 0)
			if err != nil || len(ls) != 1 {
				t.Fatalf("Grant: %v %v", ls, err)
			}
			if i == failed {
				return sc, ls[0]
			}
			if out, err := sc.Settle(ls[0], 0, 0, runErr); out != SettledReleased || err != nil {
				t.Fatalf("failure %d settled %q, %v", i+1, out, err)
			}
		}
	}
	status := func(t *testing.T, sc *Scheduler, l *Lease) Status {
		t.Helper()
		st, err := sc.Status(l.JobID)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}

	t.Run("success completes", func(t *testing.T) {
		sc, l := grantTop(t, 1)
		out, err := sc.Settle(l, 0.8, 2, nil)
		if out != SettledCompleted || err != nil {
			t.Fatalf("settled %q, %v", out, err)
		}
		st := status(t, sc, l)
		if st.Trained != 1 || st.Models[0].Name != l.Candidate.Name() || st.Models[0].Accuracy != 0.8 || sc.Rounds() != 1 {
			t.Errorf("status after a completed settle: %+v, rounds %d", st, sc.Rounds())
		}
		if n := tallySize(sc); n != 0 {
			t.Errorf("an observed arm kept its failure tally (%d entries)", n)
		}
	})
	t.Run("failure below the budget releases", func(t *testing.T) {
		sc, l := grantTop(t, 1)
		out, err := sc.Settle(l, 0, 0, runErr)
		if out != SettledReleased || err != nil {
			t.Fatalf("settled %q, %v", out, err)
		}
		if got := tallyOf(sc, l); got != 2 {
			t.Errorf("tally %d after two failures", got)
		}
		if sc.InFlight() != 0 {
			t.Errorf("%d leases outstanding after a release", sc.InFlight())
		}
		// The arm is selectable again: it still holds the top UCB.
		again, err := sc.Grant(1, 0)
		if err != nil || len(again) != 1 || again[0].Arm != l.Arm {
			t.Errorf("re-grant after release: %+v, %v; want arm %d", again, err, l.Arm)
		}
	})
	t.Run("failure at the budget abandons", func(t *testing.T) {
		sc, l := grantTop(t, 2)
		out, err := sc.Settle(l, 0, 0, runErr)
		if out != SettledAbandoned || err != nil {
			t.Fatalf("settled %q, %v", out, err)
		}
		st := status(t, sc, l)
		if !reflect.DeepEqual(st.Abandoned, []string{l.Candidate.Name()}) {
			t.Errorf("abandoned list %v, want [%s]", st.Abandoned, l.Candidate.Name())
		}
		if st.Trained != 0 || len(st.Models) != 0 || sc.Rounds() != 0 {
			t.Errorf("an abandoned candidate left a model record or a round: %+v, rounds %d", st, sc.Rounds())
		}
		if n := tallySize(sc); n != 0 {
			t.Errorf("a retired arm kept its failure tally (%d entries)", n)
		}
		// Never a fourth run: the drain trains everything else and ends.
		for {
			ls, err := sc.Grant(1, 0)
			if err != nil {
				t.Fatal(err)
			}
			if len(ls) == 0 {
				break
			}
			if ls[0].Arm == l.Arm {
				t.Fatalf("abandoned arm %d was leased again", l.Arm)
			}
			if _, err := sc.Settle(ls[0], 0.5, 1, nil); err != nil {
				t.Fatal(err)
			}
		}
		if st := status(t, sc, l); st.Trained != st.NumCandidates-1 {
			t.Errorf("trained %d of %d, want all but the abandoned one", st.Trained, st.NumCandidates)
		}
	})
	t.Run("a settle that loses a race burns no budget", func(t *testing.T) {
		for _, failed := range []int{1, 2} { // the release path and the abandon path
			sc, l := grantTop(t, failed)
			if err := sc.Release(l); err != nil { // e.g. the lease expired first
				t.Fatal(err)
			}
			out, err := sc.Settle(l, 0, 0, runErr)
			if !errors.Is(err, ErrLeaseConflict) {
				t.Fatalf("late failure report settled %q, %v; want ErrLeaseConflict", out, err)
			}
			if got := tallyOf(sc, l); got != failed {
				t.Errorf("tally %d after a conflicting settle, want %d unchanged", got, failed)
			}
			if _, err := sc.Settle(l, 0.9, 1, nil); !errors.Is(err, ErrLeaseConflict) {
				t.Errorf("late success report: %v, want ErrLeaseConflict", err)
			}
			if st := status(t, sc, l); st.Trained != 0 || len(st.Abandoned) != 0 {
				t.Errorf("conflicting settles changed the job: %+v", st)
			}
		}
	})
	t.Run("nil lease", func(t *testing.T) {
		sc, _ := grantTop(t, 0)
		if _, err := sc.Settle(nil, 0, 0, nil); err == nil {
			t.Error("Settle(nil) succeeded")
		}
	})
}

// The retry bug: RunRounds — the paper's deployed strategy — had no retry
// bound, so one permanently failing candidate holding the top UCB stopped
// every tenant forever. It must abandon the candidate at the retry budget,
// exactly as the engine does (same WAL record, same Status entry), go on
// to train the rest, and still return each failing round's training error.
func TestRunRoundsAbandonsPermanentlyFailingCandidate(t *testing.T) {
	dir := t.TempDir()
	sc, log := newDurableScheduler(t, dir)
	jobA, err := sc.Submit("a", recoveryTSProgram)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sc.Submit("b", recoveryTSProgram); err != nil {
		t.Fatal(err)
	}
	// Break whatever candidate the scheduler wants first.
	first, err := sc.Grant(1, 0)
	if err != nil || len(first) != 1 {
		t.Fatalf("Grant: %v %v", first, err)
	}
	brokenJob, broken := first[0].JobID, first[0].Candidate.Name()
	if err := sc.Release(first[0]); err != nil {
		t.Fatal(err)
	}
	sc.trainer = &failingTrainer{Trainer: sc.trainer, fail: func(jobID string, c templates.Candidate) bool {
		return jobID == brokenJob && c.Name() == broken
	}}

	total := 2 * len(jobA.Candidates)
	trained, failures := 0, 0
	for calls := 0; calls < 10; calls++ {
		ran, err := sc.RunRounds(100)
		trained += ran
		if err == nil {
			break
		}
		failures++
		if want := "training " + brokenJob + "/" + broken; !strings.Contains(err.Error(), want) {
			t.Fatalf("RunRounds error %q does not name the failing round (%s)", err, want)
		}
	}
	if failures != 3 {
		t.Errorf("%d RunRounds calls returned the training error, want the retry budget, 3", failures)
	}
	if trained != total-1 {
		t.Fatalf("trained %d of %d candidates, want all but the broken one", trained, total)
	}
	st, err := sc.Status(brokenJob)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(st.Abandoned, []string{broken}) || st.Trained != st.NumCandidates-1 {
		t.Errorf("status of the job with the broken candidate: abandoned %v, trained %d of %d",
			st.Abandoned, st.Trained, st.NumCandidates)
	}
	for _, m := range st.Models {
		if m.Name == broken {
			t.Errorf("abandoned candidate has a model record: %+v", m)
		}
	}
	if n := tallySize(sc); n != 0 {
		t.Errorf("failure tally holds %d entries after the drain", n)
	}
	// The abandonment is in the WAL: a recovery of the crash image knows it.
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	sc2, log2 := newDurableScheduler(t, dir)
	defer log2.Close()
	st2, err := sc2.Status(brokenJob)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(st2.Abandoned, []string{broken}) {
		t.Errorf("recovered abandoned list %v, want [%s]", st2.Abandoned, broken)
	}
}

// failCounts is bounded: an entry goes when its arm is observed or retired,
// so a drain through a flaky trainer leaves nothing behind.
func TestFailureTallyIsEmptyAfterFlakyDrain(t *testing.T) {
	sc := NewScheduler(NewSimTrainer(cluster.NewPool(8, 0.9), 42), nil, "http://test:9000")
	for _, name := range []string{"a", "b", "c"} {
		if _, err := sc.Submit(name, recoveryTSProgram); err != nil {
			t.Fatal(err)
		}
	}
	// Every third run fails: most candidates fail once or twice and then
	// train; a few reach the budget and are abandoned.
	var runs atomic.Int64
	sc.trainer = &failingTrainer{Trainer: sc.trainer, fail: func(string, templates.Candidate) bool {
		return runs.Add(1)%3 == 0
	}}
	sawTally := false
	for {
		ran, err := sc.RunRounds(1 << 20)
		sawTally = sawTally || tallySize(sc) > 0
		if err == nil && ran == 0 {
			break
		}
	}
	if !sawTally {
		t.Fatal("the flaky trainer never left a failure on the tally; the test proves nothing")
	}
	if n := tallySize(sc); n != 0 {
		t.Errorf("failure tally holds %d entries after the drain", n)
	}
	for _, j := range sc.Jobs() {
		st, err := sc.Status(j.ID)
		if err != nil {
			t.Fatal(err)
		}
		if st.Trained+len(st.Abandoned) != st.NumCandidates {
			t.Errorf("job %s: trained %d + abandoned %d != %d candidates", j.ID, st.Trained, len(st.Abandoned), st.NumCandidates)
		}
	}
}

// Grant applies its count and its ceiling inside the pick's own critical
// section: concurrent callers never get more than n leases each and never
// push the table past limit, with no hand-back arithmetic in any caller.
func TestGrantConcurrentRespectsCountAndCeiling(t *testing.T) {
	const (
		goroutines = 8
		n          = 3
		limit      = 10
		rounds     = 40
	)
	sc := NewScheduler(NewSimTrainer(cluster.NewPool(8, 0.9), 42), nil, "http://test:9000")
	for i := 0; i < 6; i++ {
		if _, err := sc.Submit(fmt.Sprintf("t-%d", i), recoveryImgProgram); err != nil {
			t.Fatal(err)
		}
	}
	unbounded, err := sc.Grant(5, 0)
	if err != nil || len(unbounded) != 5 {
		t.Fatalf("Grant(5, 0) with no ceiling: %d leases, %v", len(unbounded), err)
	}
	for _, l := range unbounded {
		if err := sc.Release(l); err != nil {
			t.Fatal(err)
		}
	}
	if ls, err := sc.Grant(0, limit); err != nil || len(ls) != 0 {
		t.Fatalf("Grant(0, limit): %d leases, %v", len(ls), err)
	}

	var wg sync.WaitGroup
	var granted atomic.Int64
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				ls, err := sc.Grant(n, limit)
				if err != nil {
					t.Error(err)
					return
				}
				if len(ls) > n {
					t.Errorf("Grant(%d, %d) returned %d leases", n, limit, len(ls))
				}
				// Leases only leave the table below, so a count above the
				// ceiling here means some Grant overshot it.
				if out := sc.InFlight(); out > limit {
					t.Errorf("%d leases outstanding, ceiling %d", out, limit)
				}
				granted.Add(int64(len(ls)))
				for i, l := range ls {
					var err error
					if (g+r+i)%2 == 0 {
						_, err = sc.Settle(l, 0.5, 1, nil)
					} else {
						err = sc.Release(l)
					}
					if err != nil {
						t.Error(err)
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if granted.Load() == 0 {
		t.Fatal("no goroutine was granted anything")
	}
	if sc.InFlight() != 0 {
		t.Errorf("%d leases left outstanding", sc.InFlight())
	}
	checkIndexConsistent(t, sc)
}

// breakingPicker is the scheduler's class-weighted HYBRID until its
// failAt-th pick (1-based), which answers no tenant while work remains — a
// picker-contract violation.
type breakingPicker struct {
	*core.ClassWeightedPicker
	picks, failAt int
}

func (p *breakingPicker) PickClasses(classes core.ClassOracle) int {
	p.picks++
	if p.picks == p.failAt {
		return -1
	}
	return p.ClassWeightedPicker.PickClasses(classes)
}

// A Grant that errors grants nothing: the lease its first pick made before
// the picker broke its contract on the second must be released inside the
// call — no caller settles leases that arrive beside an error, so a lease
// returned there stayed outstanding, its arm hallucinated into every later
// pick of the job, until a TTL sweep (or forever, engine-only).
func TestGrantErrorReleasesPartialBatch(t *testing.T) {
	submit := func(picker classPicker) *Scheduler {
		sc := NewScheduler(NewSimTrainer(cluster.NewPool(8, 0.9), 42), nil, "http://test:9000")
		if picker != nil {
			sc.picker = picker
		}
		for _, name := range []string{"a", "b"} {
			if _, err := sc.Submit(name, recoveryTSProgram); err != nil {
				t.Fatal(err)
			}
		}
		return sc
	}
	twin := submit(nil)
	want, err := twin.Grant(1, 0)
	if err != nil || len(want) != 1 {
		t.Fatalf("twin Grant: %v %v", want, err)
	}

	picker := &breakingPicker{ClassWeightedPicker: core.NewClassWeightedPicker(nil), failAt: 2}
	sc := submit(picker)
	ls, err := sc.Grant(2, 0)
	if err == nil || len(ls) != 0 {
		t.Fatalf("Grant with a picker that breaks on its second pick returned %d leases, error %v; want none and an error", len(ls), err)
	}
	if n := sc.InFlight(); n != 0 {
		t.Fatalf("%d leases outstanding after a failed Grant", n)
	}
	if tallySize(sc) != 0 {
		t.Fatal("a failed Grant tallied run failures")
	}
	if err := sc.CheckIndexConsistent(); err != nil {
		t.Fatal(err)
	}
	// The picker conforms from here on: the arm the failed call had leased
	// first is the top pick again.
	got, err := sc.Grant(1, 0)
	if err != nil || len(got) != 1 {
		t.Fatalf("Grant after the failure: %v %v", got, err)
	}
	if got[0].JobID != want[0].JobID || got[0].Arm != want[0].Arm {
		t.Fatalf("granted %s arm %d after the failure, want %s arm %d — the failed Grant's first pick", got[0].JobID, got[0].Arm, want[0].JobID, want[0].Arm)
	}
}
