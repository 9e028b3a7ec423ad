package fleet

import (
	"context"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/dsl"
	"repro/internal/templates"
)

// Submit (coordinator side) and the agent's per-lease job fetch (worker
// side) now share the process-wide plan cache. Hammer both concurrently
// under -race: many tenants submitting the same program while an agent
// resolves candidate grids for the resulting jobs.
func TestConcurrentSubmitAndAgentFetchSharePlanCache(t *testing.T) {
	dsl.ResetPlanCache()
	templates.ResetCandidateCache()
	progBefore, candsBefore := cacheLookups("program"), cacheLookups("candidates")
	sc := newTestScheduler(t)
	if _, err := sc.Submit("seed", tsProgram); err != nil {
		t.Fatal(err)
	}

	coord := NewCoordinator(sc, CoordinatorConfig{
		LeaseTTL:          500 * time.Millisecond,
		HeartbeatInterval: 40 * time.Millisecond,
		SweepInterval:     20 * time.Millisecond,
		DeadAfter:         2 * time.Second,
		PollInterval:      5 * time.Millisecond,
		Seed:              fleetSeed,
	})
	coord.Start()
	defer coord.Stop()
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()

	agentCtx, stopAgent := context.WithCancel(context.Background())
	defer stopAgent()
	var agentDone sync.WaitGroup
	agent, err := NewAgent(AgentConfig{
		Coordinator: srv.URL, Name: "cache-worker", Devices: 2,
		Executor:     NewSimExecutor(fleetSeed),
		PollInterval: 5 * time.Millisecond, HeartbeatInterval: 40 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	agentDone.Add(1)
	go func() { defer agentDone.Done(); _ = agent.Run(agentCtx) }()

	// Eight tenants race 40 submissions of one program against the agent's
	// job fetches.
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				if _, err := sc.Submit("tenant", tsProgram); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Let the agent train across several of the new jobs (each job's first
	// lease forces a fetch+resolve of its candidate grid).
	deadline := time.After(10 * time.Second)
	for {
		trained := 0
		for _, job := range sc.Jobs() {
			st, err := sc.Status(job.ID)
			if err != nil {
				t.Fatal(err)
			}
			trained += st.Trained
		}
		if trained >= 12 {
			break
		}
		select {
		case <-deadline:
			t.Fatalf("agent trained only %d candidates in 10s", trained)
		case <-time.After(10 * time.Millisecond):
		}
	}
	stopAgent()
	agentDone.Wait()

	// One program everywhere: after the first parse, every Submit and
	// every agent fetch should have hit.
	prog := cacheLookups("program").since(progBefore)
	if prog.misses != 1 {
		t.Errorf("program cache misses = %d, want 1 (%+v)", prog.misses, prog)
	}
	if hr := prog.hitRate(); hr <= 0.9 {
		t.Errorf("program cache hit rate %.2f, want > 0.90 (%+v)", hr, prog)
	}
	cands := cacheLookups("candidates").since(candsBefore)
	if hr := cands.hitRate(); hr <= 0.9 {
		t.Errorf("candidate cache hit rate %.2f, want > 0.90 (%+v)", hr, cands)
	}
}

// lookups is one plan cache's hit and miss counts, read from the
// process-global easeml_plan_cache_events_total series.
type lookups struct{ hits, misses uint64 }

func cacheLookups(cache string) lookups {
	return lookups{dsl.CacheEventCounter(cache, "hit").Value(), dsl.CacheEventCounter(cache, "miss").Value()}
}

func (l lookups) since(before lookups) lookups {
	return lookups{l.hits - before.hits, l.misses - before.misses}
}

func (l lookups) hitRate() float64 {
	if l.hits+l.misses == 0 {
		return 0
	}
	return float64(l.hits) / float64(l.hits+l.misses)
}
