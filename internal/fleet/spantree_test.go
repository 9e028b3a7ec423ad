package fleet

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/server"
	"repro/internal/telemetry"
)

// The issue's acceptance path: one fleet lease — picked by the
// coordinator's scheduler, granted over the wire, run by a worker agent,
// settled back — must yield a single span tree under the lease's trace ID
// containing the pick stage, the grant, the worker-side run and the
// settle, plus a pick DecisionRecord linked to the same trace carrying the
// winning arm's UCB.
func TestLeaseSpanTreeAcrossProcesses(t *testing.T) {
	sc := newTestScheduler(t)
	job, err := sc.Submit("spantree", tsProgram)
	if err != nil {
		t.Fatal(err)
	}

	coord := NewCoordinator(sc, CoordinatorConfig{LeaseTTL: 2 * time.Second, Seed: fleetSeed})
	coord.Start()
	defer coord.Stop()
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()

	agent, err := NewAgent(AgentConfig{Coordinator: srv.URL, Name: "span-worker",
		PollInterval: 10 * time.Millisecond, HeartbeatInterval: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = agent.Run(ctx)
	}()
	// Run the job to exhaustion so every pick's lease settles — no lease is
	// left to be abandoned by the shutdown below.
	deadline := time.Now().Add(10 * time.Second)
	for agent.Completed() < int64(len(job.Candidates)) && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	cancel()
	<-done
	if agent.Completed() < int64(len(job.Candidates)) {
		t.Fatalf("only %d of %d leases completed within the deadline", agent.Completed(), len(job.Candidates))
	}

	// The pick decision is the link between the provenance ring and the
	// flight recorder: it names the trace the whole lease lives under. The
	// listing is newest-first; take the job's FIRST pick — made with no
	// arms in flight, so its winning UCB comes straight off the real
	// posterior surface recorded in the top-K table.
	picks := sc.Decisions(server.DecisionFilter{Job: job.ID, Kind: server.DecisionPick})
	if len(picks) == 0 {
		t.Fatalf("no pick decisions for job %s: %+v",
			job.ID, sc.Decisions(server.DecisionFilter{Job: job.ID}))
	}
	pick := &picks[len(picks)-1]
	if pick.Trace == "" {
		t.Fatalf("pick decision carries no trace ID: %+v", pick)
	}
	if pick.Arm < 0 || pick.UCB == 0 {
		t.Errorf("pick decision has no winning arm score: %+v", pick)
	}
	found := false
	for _, s := range pick.TopUCB {
		if s.Arm == pick.Arm && s.UCB == pick.UCB {
			found = true
		}
	}
	if !found {
		t.Errorf("winning arm %d (ucb %g) absent from top-K %+v", pick.Arm, pick.UCB, pick.TopUCB)
	}

	// Poll the recorder briefly: the settle span lands when the coordinator
	// processes the worker's Complete, a hair after Completed() flips.
	var spans []telemetry.SpanData
	ops := map[string]int{}
	for deadline := time.Now().Add(2 * time.Second); time.Now().Before(deadline); time.Sleep(10 * time.Millisecond) {
		spans, _ = telemetry.DefaultRecorder().Trace(pick.Trace)
		ops = map[string]int{}
		for _, sd := range spans {
			ops[sd.Op]++
		}
		if ops["settle"] > 0 && ops["worker_run"] > 0 {
			break
		}
	}
	for _, op := range []string{"lease", "pick_select", "lease_grant", "worker_run", "settle"} {
		if ops[op] == 0 {
			t.Errorf("trace %s missing %s span; recorded ops: %v", pick.Trace, op, ops)
		}
	}

	// The spans assemble into ONE tree: every stage hangs off the lease
	// root, including the worker's run (parented over the wire).
	tree := telemetry.BuildSpanTree(spans)
	var root *telemetry.SpanNode
	for _, n := range tree {
		if n.Op == "lease" {
			root = n
		}
	}
	if root == nil {
		t.Fatalf("no lease root among %d tree roots", len(tree))
	}
	childOps := map[string]bool{}
	for _, c := range root.Children {
		childOps[c.Op] = true
	}
	for _, op := range []string{"pick_select", "lease_grant", "worker_run", "settle"} {
		if !childOps[op] {
			t.Errorf("lease root missing %s child; children: %v", op, childOps)
		}
	}
	if root.Attrs["job"] != job.ID {
		t.Errorf("lease root job attr = %q, want %q", root.Attrs["job"], job.ID)
	}

	// Every op in the tree comes from the registered set — the runtime
	// counterpart of metriclint's static check.
	registered := map[string]bool{}
	for _, op := range telemetry.RegisteredSpanOps() {
		registered[op] = true
	}
	for _, sd := range spans {
		if !registered[sd.Op] {
			t.Errorf("span op %q not registered via telemetry.SpanOp", sd.Op)
		}
	}
}
