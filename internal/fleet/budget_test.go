package fleet

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/engine"
	"repro/internal/server"
	"repro/internal/templates"
)

// stopOnFailTrainer fails one candidate and cancels the engine run the
// moment it does, so the engine path contributes exactly one failure.
type stopOnFailTrainer struct {
	server.Trainer
	broken string
	stop   context.CancelFunc
	runs   int
}

func (s *stopOnFailTrainer) Train(jobID string, c templates.Candidate) (float64, float64, error) {
	if c.Name() != s.broken {
		return s.Trainer.Train(jobID, c)
	}
	s.runs++
	s.stop()
	return 0, 0, fmt.Errorf("%s never trains", s.broken)
}

// One retry budget across executors: the tally and the release-vs-abandon
// decision live in the scheduler (Settle), so a candidate that fails once
// under the in-process engine and twice under remote workers is abandoned
// on the third failure — it never gets a fourth run, let alone a budget
// per executor.
func TestRetryBudgetIsSharedAcrossExecutors(t *testing.T) {
	sc := newTestScheduler(t)
	job, err := sc.Submit("a", tsProgram)
	if err != nil {
		t.Fatal(err)
	}
	top, err := sc.Grant(1, 0)
	if err != nil || len(top) != 1 {
		t.Fatalf("Grant: %v %v", top, err)
	}
	broken := top[0].Candidate.Name()
	if err := sc.Release(top[0]); err != nil {
		t.Fatal(err)
	}

	// Failure 1, engine path: one worker, so the top candidate is the first
	// run; its failure stops the engine and everything queued is released.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	tr := &stopOnFailTrainer{Trainer: sc.Trainer(), broken: broken, stop: cancel}
	eng := engine.New(sc, tr, engine.Config{Workers: 1})
	if err := eng.Drain(ctx); !errors.Is(err, engine.ErrInterrupted) {
		t.Fatalf("Drain stopped by the failing run: %v, want ErrInterrupted", err)
	}
	if m := eng.Metrics(); tr.runs != 1 || m.Errors != 1 || m.Abandoned != 0 || m.Completed != 0 || sc.InFlight() != 0 {
		t.Fatalf("engine path: %d runs of %s, metrics %+v, %d leases outstanding; want one failed run, all released",
			tr.runs, broken, m, sc.InFlight())
	}

	// Failures 2 and 3, fleet path: the candidate still holds the top UCB.
	coord := NewCoordinator(sc, CoordinatorConfig{Seed: fleetSeed})
	reg := coord.Register(RegisterRequest{Name: "w", Devices: 1})
	for _, want := range []string{server.SettledReleased, server.SettledAbandoned} {
		lr, err := coord.Lease(LeaseRequest{WorkerID: reg.WorkerID, Max: 1})
		if err != nil || len(lr.Leases) != 1 || lr.Leases[0].Candidate != broken {
			t.Fatalf("lease: %+v, %v; want %s again", lr.Leases, err, broken)
		}
		cr, err := coord.Complete(CompleteRequest{WorkerID: reg.WorkerID, LeaseID: lr.Leases[0].LeaseID, Error: "remote run failed"})
		if err != nil || cr.Settled != want {
			t.Fatalf("failure report settled %q, %v; want %q", cr.Settled, err, want)
		}
	}

	// Never a fourth run: the rest of the job drains without it.
	for {
		lr, err := coord.Lease(LeaseRequest{WorkerID: reg.WorkerID, Max: 1})
		if err != nil {
			t.Fatal(err)
		}
		if len(lr.Leases) == 0 {
			break
		}
		if lr.Leases[0].Candidate == broken {
			t.Fatalf("%s was leased a fourth time", broken)
		}
		if _, err := coord.Complete(CompleteRequest{WorkerID: reg.WorkerID, LeaseID: lr.Leases[0].LeaseID, Accuracy: 0.6, Cost: 1}); err != nil {
			t.Fatal(err)
		}
	}
	st, err := sc.Status(job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(st.Abandoned, []string{broken}) || st.Trained != st.NumCandidates-1 {
		t.Errorf("abandoned %v, trained %d of %d; want [%s] and all the rest", st.Abandoned, st.Trained, st.NumCandidates, broken)
	}
}
