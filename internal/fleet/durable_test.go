package fleet

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/server"
	"repro/internal/storage"
	"repro/internal/telemetry"
	"repro/internal/templates"
)

// answerTap records the coordinator's /fleet/complete answers on their way
// to the worker.
type answerTap struct {
	next    http.Handler
	mu      sync.Mutex
	answers []CompleteResponse
}

func (at *answerTap) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/fleet/complete" {
		at.next.ServeHTTP(w, r)
		return
	}
	rec := httptest.NewRecorder()
	at.next.ServeHTTP(rec, r)
	var resp CompleteResponse
	if rec.Code == http.StatusOK && json.Unmarshal(rec.Body.Bytes(), &resp) == nil {
		at.mu.Lock()
		at.answers = append(at.answers, resp)
		at.mu.Unlock()
	}
	for k, v := range rec.Header() {
		w.Header()[k] = v
	}
	w.WriteHeader(rec.Code)
	w.Write(rec.Body.Bytes())
}

func (at *answerTap) snapshot() []CompleteResponse {
	at.mu.Lock()
	defer at.mu.Unlock()
	return slices.Clone(at.answers)
}

// holdSecond runs on the simulator, except that its second run blocks
// until its context dies, announcing it on held.
type holdSecond struct {
	*SimExecutor
	calls atomic.Int32
	held  chan struct{}
}

func (h *holdSecond) Execute(ctx context.Context, jobID string, cand templates.Candidate) (float64, float64, error) {
	if h.calls.Add(1) == 2 {
		close(h.held)
		<-ctx.Done()
		return 0, 0, ctx.Err()
	}
	return h.SimExecutor.Execute(ctx, jobID, cand)
}

// crashImage writes into dst what a crash of the log in src can leave once
// the horizon is fsynced and nothing above it is: src's events at or below
// the horizon, in seq order. Appended to a fresh log they take the same
// seqs again, since a log that was never compacted numbers them from 1.
func crashImage(t *testing.T, src, dst string, horizon uint64) {
	t.Helper()
	var kept []storage.Event
	log, _, err := storage.Open(src, storage.LogOptions{}, func(ev storage.Event) error {
		if ev.Seq <= horizon {
			kept = append(kept, ev)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	img, _, err := storage.Open(dst, storage.LogOptions{}, func(storage.Event) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range kept {
		if seq, err := img.AppendBatch([]storage.Event{ev}); err != nil || seq != ev.Seq {
			t.Fatalf("crash image: %s took seq %d (%v), want %d", ev.Type, seq, err, ev.Seq)
		}
	}
	if err := img.Close(); err != nil {
		t.Fatal(err)
	}
}

// A settle-and-lease answer that grants a lease is written before the
// settle's fsync. When the coordinator crashes after such an answer and
// restarts from what reached the disk, the worker must not count the
// settle the restarted log lost: it holds it pending until an answer's
// durable horizon covers it, and drops it when it re-registers, because
// the restarted coordinator reissues the lost record's seq. Afterwards
// Completed equals the model records the recovered log holds.
func TestRestartDropsPendingSettles(t *testing.T) {
	base := t.TempDir()
	dir1, dir2 := filepath.Join(base, "before"), filepath.Join(base, "after")
	sc1 := newTestScheduler(t)
	log1, _, err := sc1.Recover(dir1, storage.LogOptions{})
	if err != nil {
		t.Fatal(err)
	}
	job, err := sc1.Submit("a", tsProgram)
	if err != nil {
		t.Fatal(err)
	}
	tap := &answerTap{next: NewCoordinator(sc1, CoordinatorConfig{Seed: fleetSeed}).Handler()}
	var handler atomic.Pointer[answerTap] // swapped to restart the coordinator
	handler.Store(tap)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		handler.Load().ServeHTTP(w, r)
	}))
	defer srv.Close()

	exec := &holdSecond{SimExecutor: NewSimExecutor(fleetSeed), held: make(chan struct{})}
	agent, err := NewAgent(AgentConfig{Coordinator: srv.URL, Name: "w", Devices: 1, Executor: exec,
		PollInterval: 5 * time.Millisecond, HeartbeatInterval: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); _ = agent.Run(ctx) }()
	select {
	case <-exec.held:
	case <-time.After(5 * time.Second):
		t.Fatal("the chained run never started")
	}
	answers := tap.snapshot()
	if len(answers) != 1 || answers[0].Lease == nil || len(answers[0].Lease.Leases) != 1 || answers[0].Seq == 0 {
		t.Fatalf("answers before the crash %+v, want one that settled a logged run and granted a lease", answers)
	}
	// The committer's cohort-gather window alone keeps the answer ahead of
	// the fsync; should the fsync ever win, the image keeps the record and
	// the count must still agree.
	if a := answers[0]; a.Durable < a.Seq && agent.Completed() != 0 {
		t.Errorf("Completed %d while the only settle (seq %d) is above the horizon %d", agent.Completed(), a.Seq, a.Durable)
	}

	// The settle that did not wait still records its WAL append, with the
	// record's seq, under its lease's trace (the job's first pick).
	picks := sc1.Decisions(server.DecisionFilter{Job: job.ID, Kind: server.DecisionPick})
	spans, _ := telemetry.DefaultRecorder().Trace(picks[len(picks)-1].Trace)
	if !slices.ContainsFunc(spans, func(sd telemetry.SpanData) bool {
		return sd.Op == "wal_append" && sd.Attrs["wal_seq"] == strconv.FormatUint(answers[0].Seq, 10)
	}) {
		t.Errorf("no wal_append span with wal_seq %d in the deferred settle's trace: %+v", answers[0].Seq, spans)
	}

	// Crash: the image holds what the answer vouched for, nothing more.
	if err := log1.Close(); err != nil {
		t.Fatal(err)
	}
	crashImage(t, dir1, dir2, answers[0].Durable)
	sc2 := newTestScheduler(t)
	log2, _, err := sc2.Recover(dir2, storage.LogOptions{})
	if err != nil {
		t.Fatal(err)
	}
	handler.Store(&answerTap{next: NewCoordinator(sc2, CoordinatorConfig{Seed: fleetSeed}).Handler()})
	eventually(t, "the restarted coordinator's job to drain", func() bool {
		return fleetTrainedCounts(t, sc2, []string{job.ID})[job.ID] == len(job.Candidates)
	})
	cancel()
	<-done
	if err := log2.Close(); err != nil {
		t.Fatal(err)
	}
	if got, want := agent.Completed(), int64(len(walEvents(t, dir2, storage.EventModelRecorded))); got != want {
		t.Errorf("Completed %d, the recovered log holds %d model records", got, want)
	}
}
