package fleet

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/templates"
)

// gateExecutor finishes its first instant runs on the simulator and blocks
// every later one until its context dies, announcing both moments: the
// shape of a slot that settled a run, chained into the next lease inside
// the report, and then hangs there.
type gateExecutor struct {
	*SimExecutor
	instant int32
	calls   atomic.Int32
	blocked chan string // candidate of each run that blocked
	aborted chan string // candidate of each blocked run whose context died
}

func newGateExecutor(instant int32) *gateExecutor {
	return &gateExecutor{SimExecutor: NewSimExecutor(fleetSeed), instant: instant,
		blocked: make(chan string, 16), aborted: make(chan string, 16)} // room for every run a 4-arm test can start
}

func (g *gateExecutor) Execute(ctx context.Context, jobID string, cand templates.Candidate) (float64, float64, error) {
	if g.calls.Add(1) <= g.instant {
		return g.SimExecutor.Execute(ctx, jobID, cand)
	}
	g.blocked <- cand.Name()
	<-ctx.Done()
	g.aborted <- cand.Name()
	return 0, 0, ctx.Err()
}

// routeTap counts the coordinator's requests per path and can run a hook
// before one is served.
type routeTap struct {
	next   http.Handler
	mu     sync.Mutex
	counts map[string]int
	before func(path string, nth int)
}

func (rt *routeTap) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rt.mu.Lock()
	if rt.counts == nil {
		rt.counts = map[string]int{}
	}
	rt.counts[r.URL.Path]++
	nth, hook := rt.counts[r.URL.Path], rt.before
	rt.mu.Unlock()
	if hook != nil {
		hook(r.URL.Path, nth)
	}
	rt.next.ServeHTTP(w, r)
}

func (rt *routeTap) count(path string) int {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.counts[path]
}

func waitFor(t *testing.T, what string, ch <-chan string) string {
	t.Helper()
	select {
	case v := <-ch:
		return v
	case <-time.After(5 * time.Second):
		t.Fatalf("timed out waiting for %s", what)
		return ""
	}
}

func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(2 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// fakeClock is a coordinator clock the test advances by hand.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) tick(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

// A worker killed while it holds a chained lease — one it never polled for —
// is no different from one killed on a polled lease: the lease expires by
// TTL, its candidate re-enters selection exactly once, and the rest of the
// fleet trains every candidate exactly once.
func TestChainedLeaseOnKilledWorkerExpiresOnce(t *testing.T) {
	sc := newTestScheduler(t)
	job, err := sc.Submit("a", tsProgram)
	if err != nil {
		t.Fatal(err)
	}
	coord := NewCoordinator(sc, CoordinatorConfig{LeaseTTL: 150 * time.Millisecond, Seed: fleetSeed})
	coord.Start()
	defer coord.Stop()
	tap := &routeTap{next: coord.Handler()}
	srv := httptest.NewServer(tap)
	defer srv.Close()

	gate := newGateExecutor(1)
	doomed, err := NewAgent(AgentConfig{Coordinator: srv.URL, Name: "doomed", Devices: 1, Executor: gate,
		SkipLeaveOnExit: true, PollInterval: 5 * time.Millisecond, HeartbeatInterval: 40 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ctx, kill := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); _ = doomed.Run(ctx) }()
	held := waitFor(t, "the chained run to start", gate.blocked)
	if polls := tap.count("/fleet/lease"); polls != 1 {
		t.Fatalf("%d lease polls before the second run; it should have arrived inside the first report", polls)
	}
	if doomed.Completed() != 1 || sc.Rounds() != 1 || sc.InFlight() != 1 {
		t.Fatalf("before the kill: completed %d, rounds %d, in flight %d; want 1, 1, 1", doomed.Completed(), sc.Rounds(), sc.InFlight())
	}
	kill()
	wg.Wait()
	eventually(t, "the chained lease to expire", func() bool { return coord.FleetStatus().ExpiredLeases == 1 })

	healthy, err := NewAgent(AgentConfig{Coordinator: srv.URL, Name: "healthy", Devices: 2,
		Executor: NewSimExecutor(fleetSeed), PollInterval: 5 * time.Millisecond, HeartbeatInterval: 40 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	hctx, stop := context.WithCancel(context.Background())
	wg.Add(1)
	go func() { defer wg.Done(); _ = healthy.Run(hctx) }()
	eventually(t, "the job to drain", func() bool {
		st, err := sc.Status(job.ID)
		return err == nil && st.Trained == st.NumCandidates
	})
	stop()
	wg.Wait()
	st, _ := sc.Status(job.ID)
	seen := map[string]bool{}
	for _, m := range st.Models {
		if seen[m.Name] {
			t.Errorf("candidate %s trained twice", m.Name)
		}
		seen[m.Name] = true
	}
	if !seen[held] {
		t.Errorf("the killed worker's candidate %s was never re-queued", held)
	}
	if got := coord.FleetStatus().ExpiredLeases; got != 1 {
		t.Errorf("%d leases expired, want exactly the one the killed worker held", got)
	}
}

// A chained lease reclaimed mid-run aborts its run through the heartbeat,
// like any other: the slot's new lease id entered the running set when the
// old one left, so the heartbeat names it and notices it missing.
func TestReclaimedChainedLeaseAbortsRun(t *testing.T) {
	sc := newTestScheduler(t)
	if _, err := sc.Submit("a", tsProgram); err != nil {
		t.Fatal(err)
	}
	clock := &fakeClock{now: time.Unix(10_000, 0)}
	coord := NewCoordinator(sc, CoordinatorConfig{LeaseTTL: time.Second, Seed: fleetSeed})
	coord.setClock(clock.Now)
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()

	gate := newGateExecutor(1)
	agent, err := NewAgent(AgentConfig{Coordinator: srv.URL, Name: "w", Devices: 1, Executor: gate,
		PollInterval: 5 * time.Millisecond, HeartbeatInterval: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); _ = agent.Run(ctx) }()
	held := waitFor(t, "the chained run to start", gate.blocked)

	// The agent heartbeats in real time against the fake clock, so a
	// heartbeat can slip between the tick and the sweep and save the lease;
	// retry until one sweep wins.
	eventually(t, "the chained lease to expire", func() bool {
		clock.tick(2 * time.Second)
		return coord.Sweep() == 1
	})
	if got := waitFor(t, "the heartbeat to abort the run", gate.aborted); got != held {
		t.Errorf("aborted %s, the reclaimed lease ran %s", got, held)
	}
	// Nothing was reported for the aborted run, and the slot went back to
	// polling: the re-queued work is leased again.
	waitFor(t, "the slot to lease again", gate.blocked)
	if agent.Completed() != 1 || agent.Failed() != 0 || sc.Rounds() != 1 {
		t.Errorf("after the abort: completed %d, failed %d, rounds %d; want 1, 0, 1", agent.Completed(), agent.Failed(), sc.Rounds())
	}
	cancel()
	<-done
}

// Shutdown racing a report: the answer carries a chained lease the agent
// will never run. It is not started; a graceful leave hands it back at once,
// and a hard exit (SkipLeaveOnExit) leaves it to the TTL.
func TestShutdownHandsBackChainedLeaseInReply(t *testing.T) {
	for _, hard := range []bool{false, true} {
		t.Run(fmt.Sprintf("skip_leave=%v", hard), func(t *testing.T) {
			sc := newTestScheduler(t)
			if _, err := sc.Submit("a", tsProgram); err != nil {
				t.Fatal(err)
			}
			clock := &fakeClock{now: time.Unix(10_000, 0)}
			coord := NewCoordinator(sc, CoordinatorConfig{LeaseTTL: time.Second, Seed: fleetSeed})
			coord.setClock(clock.Now)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			// Shutdown begins while the first report is on the wire.
			tap := &routeTap{next: coord.Handler(), before: func(path string, nth int) {
				if path == "/fleet/complete" && nth == 1 {
					cancel()
				}
			}}
			srv := httptest.NewServer(tap)
			defer srv.Close()

			gate := newGateExecutor(1)
			agent, err := NewAgent(AgentConfig{Coordinator: srv.URL, Name: "w", Devices: 1, Executor: gate,
				SkipLeaveOnExit: hard, PollInterval: 5 * time.Millisecond, HeartbeatInterval: 50 * time.Millisecond})
			if err != nil {
				t.Fatal(err)
			}
			if err := agent.Run(ctx); err != nil {
				t.Fatal(err)
			}
			if calls := gate.calls.Load(); calls != 1 || agent.Completed() != 1 {
				t.Fatalf("%d runs started, %d completed; the chained lease must not start", calls, agent.Completed())
			}
			if got := coord.FleetStatus().Workers[0].Completed; got != 1 {
				t.Fatalf("the in-flight report did not settle (worker completed %d)", got)
			}
			if hard {
				if sc.InFlight() != 1 {
					t.Fatalf("in flight %d after a hard exit, want the chained lease waiting out its TTL", sc.InFlight())
				}
				clock.tick(2 * time.Second)
				if n := coord.Sweep(); n != 1 {
					t.Fatalf("sweep expired %d leases, want 1", n)
				}
			} else if st := coord.FleetStatus(); st.Left != 1 {
				t.Errorf("registry shows %d departed workers, want 1", st.Left)
			}
			if sc.InFlight() != 0 {
				t.Errorf("the chained lease was not handed back (in flight %d)", sc.InFlight())
			}
			if again, err := sc.PickWork(4); err != nil || len(again) != 3 {
				t.Errorf("after the hand-back %d of 3 untrained candidates are selectable (%v)", len(again), err)
			}
		})
	}
}
