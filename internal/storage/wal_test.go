package storage

import (
	"errors"
	"os"
	"strings"
	"testing"
)

func TestWALRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, rec, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Jobs) != 0 || rec.Events != 0 {
		t.Fatalf("fresh dir recovered %+v", rec)
	}
	if err := l.AppendJobSubmitted("job-0001", "demo", "{prog}"); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendExampleFed("job-0001", 1, []float64{1, 2}, []float64{3}); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendExampleFed("job-0001", 2, []float64{4, 5}, []float64{6}); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendExampleRefined("job-0001", 1, false); err != nil {
		t.Fatal(err)
	}
	if _, err := l.AppendModelRecorded("job-0001", ModelRecord{Name: "m1", Accuracy: 0.8, Cost: 2, Round: 1}); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendCandidateAbandoned("job-0001", "m9"); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, rec2, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if len(rec2.Jobs) != 1 || rec2.Jobs[0].ID != "job-0001" || rec2.Jobs[0].Program != "{prog}" {
		t.Fatalf("recovered jobs %+v", rec2.Jobs)
	}
	if rec2.Events != 6 {
		t.Errorf("replayed %d events, want 6", rec2.Events)
	}
	ts, ok := rec2.Store.Task("job-0001")
	if !ok {
		t.Fatal("recovered store missing task")
	}
	exs := ts.Examples()
	if len(exs) != 2 {
		t.Fatalf("recovered %d examples, want 2", len(exs))
	}
	if exs[0].ID != 1 || exs[0].Enabled || !exs[1].Enabled {
		t.Errorf("recovered examples %+v", exs)
	}
	if ms := ts.Models(); len(ms) != 1 || ms[0].Name != "m1" || ms[0].Round != 1 {
		t.Errorf("recovered models %+v", ms)
	}
	if ab := rec2.Abandoned["job-0001"]; len(ab) != 1 || ab[0] != "m9" {
		t.Errorf("recovered abandoned %+v", rec2.Abandoned)
	}
	// Sequence numbers continue past the recovered history.
	if err := l2.AppendExampleFed("job-0001", 3, []float64{7}, []float64{8}); err != nil {
		t.Fatal(err)
	}
	if l2.Seq() != 7 {
		t.Errorf("seq %d after recovery append, want 7", l2.Seq())
	}
}

// A failed fsync poisons the log: the batch it failed is not acknowledged,
// and neither is anything after it — a later fsync succeeding says nothing
// about pages the failed one may have dropped — so every later append and
// compaction returns the stored error without touching the segment.
func TestFailedSyncPoisonsLog(t *testing.T) {
	dir := t.TempDir()
	l, _, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.AppendJobSubmitted("job-0001", "demo", "{prog}"); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("injected fsync failure")
	failures := 1
	l.fsync = func(f *os.File) error {
		if failures > 0 {
			failures--
			return boom
		}
		return f.Sync()
	}
	if _, err := l.AppendBatch(exampleBatch(1, 2)); !errors.Is(err, boom) {
		t.Fatalf("append whose fsync failed: %v, want the fsync error", err)
	}
	if err := l.Err(); !errors.Is(err, boom) {
		t.Fatalf("Err after a failed fsync = %v, want the fsync error", err)
	}
	written := l.Stats().BytesWritten
	seg := activeSegment(t, dir)
	before, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.AppendBatch(exampleBatch(3, 1)); !errors.Is(err, boom) {
		t.Errorf("append after a failed fsync: %v, want the stored fsync error", err)
	}
	if got := l.Stats().BytesWritten; got != written {
		t.Errorf("append after a failed fsync wrote: bytes_written %d → %d", written, got)
	}
	if after, err := os.Stat(seg); err != nil || after.Size() != before.Size() {
		t.Errorf("append after a failed fsync touched the segment: %d → %v bytes (%v)", before.Size(), after.Size(), err)
	}
	if err := l.Compact(nil, nil, nil, NewStore(), l.Seq()); !errors.Is(err, boom) {
		t.Errorf("Compact on a poisoned log: %v, want the stored fsync error", err)
	}
	if err := l.Close(); !errors.Is(err, boom) {
		t.Errorf("Close on a poisoned log: %v, want the stored fsync error", err)
	}
}

// activeSegment returns the path of the directory's newest WAL segment.
func activeSegment(t *testing.T, dir string) string {
	t.Helper()
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) == 0 {
		t.Fatalf("no WAL segments in %s", dir)
	}
	return segs[len(segs)-1].path
}

func TestWALTornTailDiscarded(t *testing.T) {
	dir := t.TempDir()
	l, _, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.AppendJobSubmitted("job-0001", "demo", "{prog}"); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendExampleFed("job-0001", 1, []float64{1}, []float64{2}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-append: the first half of the next record.
	walPath := activeSegment(t, dir)
	f, err := os.OpenFile(walPath, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	next := frame(t, 3, Event{Type: EventExampleFed, Job: "job-0001", Example: 2, Input: []float64{3}, Output: []float64{4}})
	if _, err := f.Write(next[:len(next)/2]); err != nil {
		t.Fatal(err)
	}
	f.Close()

	l2, rec, err := OpenDir(dir)
	if err != nil {
		t.Fatalf("torn tail rejected: %v", err)
	}
	if rec.Events != 2 {
		t.Errorf("replayed %d events, want the 2 intact ones", rec.Events)
	}
	// The torn bytes were truncated away: the next append must not fuse
	// with them into a corrupt record.
	if err := l2.AppendExampleFed("job-0001", 2, []float64{3}, []float64{4}); err != nil {
		t.Fatal(err)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	_, rec3, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	ts, _ := rec3.Store.Task("job-0001")
	if got := len(ts.Examples()); got != 2 {
		t.Errorf("after torn-tail recovery + append: %d examples, want 2", got)
	}
}

func TestWALCorruptionMidFileRejected(t *testing.T) {
	dir := t.TempDir()
	l, _, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.AppendJobSubmitted("job-0001", "demo", "{prog}"); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendExampleFed("job-0001", 1, []float64{1}, []float64{2}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	walPath := activeSegment(t, dir)
	data, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	data[frameHeader+5] ^= 0x20 // inside the first record's body; a record follows
	if err := os.WriteFile(walPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err = OpenDir(dir)
	if err == nil || !strings.Contains(err.Error(), "corrupt") || !strings.Contains(err.Error(), "at byte 0") {
		t.Fatalf("mid-file corruption accepted or not located: %v", err)
	}
}

func TestCompactionTruncatesAndRecovers(t *testing.T) {
	dir := t.TempDir()
	l, _, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	store := NewStore()
	ts, err := store.CreateTask("job-0001")
	if err != nil {
		t.Fatal(err)
	}
	if err := l.AppendJobSubmitted("job-0001", "demo", "{prog}"); err != nil {
		t.Fatal(err)
	}
	ts.PutExample(Example{ID: 1, Input: []float64{1}, Output: []float64{2}, Enabled: true})
	if err := l.AppendExampleFed("job-0001", 1, []float64{1}, []float64{2}); err != nil {
		t.Fatal(err)
	}
	ts.RecordModel(ModelRecord{Name: "m1", Accuracy: 0.7, Round: 1})
	if _, err := l.AppendModelRecorded("job-0001", ModelRecord{Name: "m1", Accuracy: 0.7, Round: 1}); err != nil {
		t.Fatal(err)
	}

	jobs := []JobMeta{{ID: "job-0001", Name: "demo", Program: "{prog}"}}
	abandoned := map[string][]string{"job-0001": {"m9"}}
	if err := l.Compact(jobs, abandoned, nil, store, l.Seq()); err != nil {
		t.Fatal(err)
	}
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 1 {
		t.Errorf("full compaction left %d segments, want 1", len(segs))
	}
	if info, err := os.Stat(segs[0].path); err != nil || info.Size() != 0 {
		t.Errorf("WAL not emptied after compaction: %v, size %d", err, info.Size())
	}

	// Post-compaction appends land in the (empty) log with continuing seq.
	ts.RecordModel(ModelRecord{Name: "m2", Accuracy: 0.9, Round: 2})
	if _, err := l.AppendModelRecorded("job-0001", ModelRecord{Name: "m2", Accuracy: 0.9, Round: 2}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	_, rec, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Jobs) != 1 || rec.Events != 1 {
		t.Fatalf("recovered %d jobs, %d replayed events (want 1, 1)", len(rec.Jobs), rec.Events)
	}
	rts, ok := rec.Store.Task("job-0001")
	if !ok {
		t.Fatal("recovered store missing task")
	}
	if ms := rts.Models(); len(ms) != 2 || ms[0].Name != "m1" || ms[1].Name != "m2" {
		t.Errorf("recovered models %+v", rts.Models())
	}
	if len(rts.Examples()) != 1 {
		t.Errorf("recovered %d examples, want 1", len(rts.Examples()))
	}
	if ab := rec.Abandoned["job-0001"]; len(ab) != 1 || ab[0] != "m9" {
		t.Errorf("recovered abandoned %+v", rec.Abandoned)
	}
}

// Replay must be idempotent: an event that is both inside the snapshot and
// still in the log (the straggler window during compaction) applies once.
func TestWALReplayIdempotent(t *testing.T) {
	dir := t.TempDir()
	l, _, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	store := NewStore()
	ts, err := store.CreateTask("job-0001")
	if err != nil {
		t.Fatal(err)
	}
	if err := l.AppendJobSubmitted("job-0001", "demo", "{prog}"); err != nil {
		t.Fatal(err)
	}
	ts.PutExample(Example{ID: 1, Input: []float64{1}, Output: []float64{2}, Enabled: true})
	ts.RecordModel(ModelRecord{Name: "m1", Accuracy: 0.7, Round: 1})

	// Compact with state that already includes the example and the model,
	// then append the very events the snapshot covers — the straggler
	// scenario.
	if err := l.Compact([]JobMeta{{ID: "job-0001", Name: "demo", Program: "{prog}"}}, nil, nil, store, l.Seq()); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendExampleFed("job-0001", 1, []float64{1}, []float64{2}); err != nil {
		t.Fatal(err)
	}
	if _, err := l.AppendModelRecorded("job-0001", ModelRecord{Name: "m1", Accuracy: 0.7, Round: 1}); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendJobSubmitted("job-0001", "demo", "{prog}"); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	_, rec, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Jobs) != 1 {
		t.Errorf("job duplicated: %+v", rec.Jobs)
	}
	rts, _ := rec.Store.Task("job-0001")
	if got := len(rts.Examples()); got != 1 {
		t.Errorf("%d examples after duplicate replay, want 1", got)
	}
	if got := len(rts.Models()); got != 1 {
		t.Errorf("%d models after duplicate replay, want 1", got)
	}
}

// Compacting with a horizon below the newest events must keep those events
// in the WAL: they may not be reflected in the captured state, and dropping
// them would lose acknowledged mutations.
func TestCompactionPreservesEventsPastHorizon(t *testing.T) {
	dir := t.TempDir()
	l, _, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	store := NewStore()
	if _, err := store.CreateTask("job-0001"); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendJobSubmitted("job-0001", "demo", "{prog}"); err != nil {
		t.Fatal(err)
	}
	horizon := l.Seq()
	// A straggler submission: logged after the horizon, missing from the
	// captured state (jobs below lists only job-0001).
	if err := l.AppendJobSubmitted("job-0002", "late", "{prog2}"); err != nil {
		t.Fatal(err)
	}
	jobs := []JobMeta{{ID: "job-0001", Name: "demo", Program: "{prog}"}}
	if err := l.Compact(jobs, nil, nil, store, horizon); err != nil {
		t.Fatal(err)
	}
	// The straggler survives compaction and further appends still work.
	if err := l.AppendExampleFed("job-0002", 1, []float64{1}, []float64{2}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	_, rec, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Jobs) != 2 || rec.Jobs[1].ID != "job-0002" {
		t.Fatalf("straggler submission lost by compaction: %+v", rec.Jobs)
	}
	ts, ok := rec.Store.Task("job-0002")
	if !ok || len(ts.Examples()) != 1 {
		t.Fatalf("straggler example lost by compaction")
	}
}

// Lease-expiry events survive crash recovery via the WAL; compaction folds
// them away (they are operational history — the re-queue effect is the
// untried arm itself, which needs no replay).
func TestLeaseExpiredEventsRecoverAndCompact(t *testing.T) {
	dir := t.TempDir()
	l, _, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.AppendJobSubmitted("job-0001", "demo", "{prog}"); err != nil {
		t.Fatal(err)
	}
	// One sweep's expiries, logged as the scheduler logs them: one batch.
	if _, err := l.AppendBatch([]Event{
		{Type: EventLeaseExpired, Job: "job-0001", Candidate: "GRU", Worker: "worker-0002"},
		{Type: EventLeaseExpired, Job: "job-0001", Candidate: "LSTM", Worker: "worker-0002"},
	}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil { // crash boundary
		t.Fatal(err)
	}

	l2, rec, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Expired) != 2 {
		t.Fatalf("recovered %d expiries, want 2: %+v", len(rec.Expired), rec.Expired)
	}
	if rec.Expired[0] != (ExpiredLease{Job: "job-0001", Candidate: "GRU", Worker: "worker-0002"}) {
		t.Errorf("first expiry %+v", rec.Expired[0])
	}

	jobs := []JobMeta{{ID: "job-0001", Name: "demo", Program: "{prog}"}}
	if err := l2.Compact(jobs, nil, nil, rec.Store, l2.Seq()); err != nil {
		t.Fatal(err)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	l3, rec2, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer l3.Close()
	if len(rec2.Jobs) != 1 {
		t.Errorf("post-compaction recovery lost the job: %+v", rec2.Jobs)
	}
	if len(rec2.Expired) != 0 {
		t.Errorf("compaction preserved %d expiry records, want 0", len(rec2.Expired))
	}
}

// Preemption events are pure history (recovered, folded away at
// compaction); budget_exhausted is state (recovered AND preserved by
// compaction in the snapshot).
func TestPreemptionAndBudgetEventsRecoverAndCompact(t *testing.T) {
	dir := t.TempDir()
	l, _, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.AppendJobSubmitted("job-0001", "carol", "{prog}"); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendLeasePreempted("job-0001", "GRU", "worker-0002", "job-0002"); err != nil {
		t.Fatal(err)
	}
	budgetEv := Event{Type: EventBudgetExhausted, Job: "job-0001", Tenant: "carol", Cost: 41.5}
	if err := l.Append(budgetEv); err != nil {
		t.Fatal(err)
	}
	// Idempotency: a duplicate budget event (straggler window) is harmless.
	if err := l.Append(budgetEv); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil { // crash boundary
		t.Fatal(err)
	}

	l2, rec, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Preempted) != 1 {
		t.Fatalf("recovered %d preemptions, want 1: %+v", len(rec.Preempted), rec.Preempted)
	}
	if rec.Preempted[0] != (PreemptedLease{Job: "job-0001", Candidate: "GRU", Worker: "worker-0002", By: "job-0002"}) {
		t.Errorf("preemption record %+v", rec.Preempted[0])
	}
	if !rec.BudgetExhausted["job-0001"] {
		t.Errorf("budget exhaustion not recovered: %+v", rec.BudgetExhausted)
	}

	jobs := []JobMeta{{ID: "job-0001", Name: "carol", Program: "{prog}"}}
	var exhausted []string
	for id := range rec.BudgetExhausted {
		exhausted = append(exhausted, id)
	}
	if err := l2.Compact(jobs, nil, exhausted, rec.Store, l2.Seq()); err != nil {
		t.Fatal(err)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}

	l3, rec2, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer l3.Close()
	if len(rec2.Preempted) != 0 {
		t.Errorf("compaction preserved %d preemption records, want 0", len(rec2.Preempted))
	}
	if !rec2.BudgetExhausted["job-0001"] {
		t.Error("compaction lost the budget-exhausted marker")
	}
}
