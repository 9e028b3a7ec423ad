package fleet

import (
	"context"
	"testing"

	"repro/internal/dsl"
	"repro/internal/server"
	"repro/internal/templates"
)

// An agent that re-fetches a job's info after a reconnect registers the job
// again: the second RegisterJob is a no-op, and Execute still trains the job
// exactly as the coordinator's own trainer does.
func TestSimExecutorRegisterJobTwice(t *testing.T) {
	cands, _, err := templates.Generate(dsl.MustParse("{input: {[Tensor[4]], [next]}, output: {[Tensor[2]], []}}"), nil)
	if err != nil {
		t.Fatal(err)
	}
	x := NewSimExecutor(fleetSeed)
	for i := range 2 {
		if err := x.RegisterJob("job-1", cands); err != nil {
			t.Fatalf("RegisterJob #%d: %v", i+1, err)
		}
	}
	ref := server.NewSimTrainer(nil, fleetSeed)
	if err := ref.Register("job-1", cands, nil); err != nil {
		t.Fatal(err)
	}
	for _, c := range cands {
		acc, cost, err := x.Execute(context.Background(), "job-1", c)
		if err != nil {
			t.Fatalf("%s: %v", c.Name(), err)
		}
		wantAcc, wantCost, err := ref.Train("job-1", c)
		if err != nil {
			t.Fatal(err)
		}
		if acc != wantAcc || cost != wantCost {
			t.Errorf("%s: trained (%v, %v), the coordinator's trainer (%v, %v)", c.Name(), acc, cost, wantAcc, wantCost)
		}
	}
}
