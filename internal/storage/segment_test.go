package storage

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

// tinySegments rolls after ~200 bytes so a handful of appends spans
// several segments.
var tinySegments = LogOptions{SegmentBytes: 200}

// feedN appends n example_fed events for job-0001 (submitting it first
// when seq is fresh).
func feedN(t *testing.T, l *Log, n int) {
	t.Helper()
	if l.Seq() == 0 {
		if err := l.AppendJobSubmitted("job-0001", "demo", "{prog}"); err != nil {
			t.Fatal(err)
		}
	}
	base := int(l.Seq())
	for i := 0; i < n; i++ {
		if err := l.AppendExampleFed("job-0001", base+i, []float64{1, 2}, []float64{3}); err != nil {
			t.Fatal(err)
		}
	}
}

func segmentCount(t *testing.T, dir string) int {
	t.Helper()
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	return len(segs)
}

func TestSegmentRollAndRecovery(t *testing.T) {
	dir := t.TempDir()
	l, _, err := openDir(dir, tinySegments)
	if err != nil {
		t.Fatal(err)
	}
	feedN(t, l, 20)
	seq := l.Seq()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if n := segmentCount(t, dir); n < 2 {
		t.Fatalf("20 appends over %d-byte segments left %d segments, want several", tinySegments.SegmentBytes, n)
	}

	l2, rec, err := openDir(dir, tinySegments)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Events != int(seq) {
		t.Errorf("replayed %d events across segments, want %d", rec.Events, seq)
	}
	ts, ok := rec.Store.Task("job-0001")
	if !ok {
		t.Fatal("recovered store missing task")
	}
	if got := len(ts.Examples()); got != 20 {
		t.Errorf("recovered %d examples, want 20", got)
	}
	// Sequence numbers continue across the reopened segment chain.
	feedN(t, l2, 1)
	if l2.Seq() != seq+1 {
		t.Errorf("seq %d after recovery append, want %d", l2.Seq(), seq+1)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
}

// A torn record at the tail of the *last* segment — the crash-mid-commit
// signature right after a roll — is truncated away; earlier segments are
// untouched.
func TestTornTailAtSegmentBoundary(t *testing.T) {
	dir := t.TempDir()
	l, _, err := openDir(dir, tinySegments)
	if err != nil {
		t.Fatal(err)
	}
	feedN(t, l, 20)
	seq := l.Seq()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 2 {
		t.Fatalf("need multiple segments, have %d", len(segs))
	}
	last := segs[len(segs)-1].path
	f, err := os.OpenFile(last, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	next := frame(t, seq+1, Event{Type: EventExampleFed, Job: "job-0001", Example: int(seq), Input: []float64{1, 2}, Output: []float64{3}})
	if _, err := f.Write(next[:frameHeader+3]); err != nil {
		t.Fatal(err)
	}
	f.Close()

	l2, rec, err := openDir(dir, tinySegments)
	if err != nil {
		t.Fatalf("torn tail in last segment rejected: %v", err)
	}
	if rec.Events != int(seq) {
		t.Errorf("replayed %d events, want the %d intact ones", rec.Events, seq)
	}
	// The torn bytes are gone; the next append must not fuse with them.
	feedN(t, l2, 1)
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	_, rec2, err := openDir(dir, tinySegments)
	if err != nil {
		t.Fatal(err)
	}
	ts, _ := rec2.Store.Task("job-0001")
	if got := len(ts.Examples()); got != 21 {
		t.Errorf("after torn-tail recovery + append: %d examples, want 21", got)
	}
}

// A torn record in a *sealed* segment is not a crash signature — seals are
// fsynced before the next segment exists — so recovery must refuse it.
func TestTornSealedSegmentRejected(t *testing.T) {
	dir := t.TempDir()
	l, _, err := openDir(dir, tinySegments)
	if err != nil {
		t.Fatal(err)
	}
	feedN(t, l, 20)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 2 {
		t.Fatalf("need multiple segments, have %d", len(segs))
	}
	sealed := segs[0].path
	data, err := os.ReadFile(sealed)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(sealed, data[:len(data)-5], 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err = openDir(dir, tinySegments)
	if err == nil || (!strings.Contains(err.Error(), "torn") && !strings.Contains(err.Error(), "corrupt")) {
		t.Fatalf("torn sealed segment accepted: %v", err)
	}
}

// Crash between the snapshot rename and the segment retire: the snapshot
// already covers every segment, but their files survive. Recovery must
// treat the leftovers as covered history (the seq horizon skips them) and
// rebuild the same state as the clean compaction.
func TestCrashMidCompaction(t *testing.T) {
	dir := t.TempDir()
	l, _, err := openDir(dir, tinySegments)
	if err != nil {
		t.Fatal(err)
	}
	feedN(t, l, 20)
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 3 {
		t.Fatalf("need >= 3 segments, have %d", len(segs))
	}
	saved := make(map[string][]byte, len(segs))
	for _, seg := range segs {
		if saved[seg.path], err = os.ReadFile(seg.path); err != nil {
			t.Fatal(err)
		}
	}

	// State capture mirrors the scheduler's: full current state at the
	// log's horizon.
	store := NewStore()
	ts, err := store.CreateTask("job-0001")
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 20; i++ {
		ts.PutExample(Example{ID: i, Input: []float64{1, 2}, Output: []float64{3}, Enabled: true})
	}
	jobs := []JobMeta{{ID: "job-0001", Name: "demo", Program: "{prog}"}}
	if err := l.Compact(jobs, nil, nil, store, l.Seq()); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if n := segmentCount(t, dir); n != 1 {
		t.Fatalf("compaction left %d segments, want 1", n)
	}
	clean, cleanRec, err := openDir(dir, tinySegments)
	if err != nil {
		t.Fatal(err)
	}
	if err := clean.Close(); err != nil {
		t.Fatal(err)
	}

	// Undo the retire: the crash happened after the snapshot rename but
	// before any covered segment left the directory.
	for path, data := range saved {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	_, rec, err := openDir(dir, tinySegments)
	if err != nil {
		t.Fatalf("recovery with leftover covered segments failed: %v", err)
	}
	if rec.Events != 0 {
		t.Errorf("replayed %d covered events, want 0", rec.Events)
	}
	rts, ok := rec.Store.Task("job-0001")
	if !ok {
		t.Fatal("recovered store missing task")
	}
	cts, _ := cleanRec.Store.Task("job-0001")
	if got, want := rts.Examples(), cts.Examples(); len(got) != 20 || !reflect.DeepEqual(got, want) {
		t.Errorf("recovered %d examples, want the clean compaction's %d", len(got), len(want))
	}
	if !reflect.DeepEqual(rec.Jobs, cleanRec.Jobs) {
		t.Errorf("recovered jobs %+v, want %+v", rec.Jobs, cleanRec.Jobs)
	}
}

// The same event surviving in two segments (an interrupted compaction can
// leave overlapping copies) must apply exactly once — including pure
// history events, which have no natural idempotency key beyond their seq.
func TestDuplicateEventAcrossSegments(t *testing.T) {
	dir := t.TempDir()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	writeSeg := func(first uint64, events []Event) {
		t.Helper()
		var b []byte
		for _, ev := range events {
			b = append(b, frame(t, ev.Seq, ev)...)
		}
		if err := os.WriteFile(filepath.Join(dir, segmentFileName(first)), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	writeSeg(1, []Event{
		{Seq: 1, Type: EventJobSubmitted, Job: "job-0001", Name: "demo", Program: "{prog}"},
		{Seq: 2, Type: EventLeaseExpired, Job: "job-0001", Candidate: "GRU", Worker: "w1"},
		{Seq: 3, Type: EventLeaseExpired, Job: "job-0001", Candidate: "LSTM", Worker: "w1"},
	})
	writeSeg(3, []Event{
		{Seq: 3, Type: EventLeaseExpired, Job: "job-0001", Candidate: "LSTM", Worker: "w1"}, // duplicate
		{Seq: 4, Type: EventLeaseExpired, Job: "job-0001", Candidate: "MLP", Worker: "w2"},
	})

	l, rec, err := openDir(dir, LogOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if len(rec.Expired) != 3 {
		t.Fatalf("recovered %d expiries from overlapping segments, want 3: %+v", len(rec.Expired), rec.Expired)
	}
	if rec.Events != 4 {
		t.Errorf("applied %d events, want 4 (duplicate seq 3 skipped)", rec.Events)
	}
	if l.Seq() != 4 {
		t.Errorf("recovered seq %d, want 4", l.Seq())
	}
}

// diskEvents reads every record of a closed log back in file order,
// failing unless the on-disk order is exactly seq order 1, 2, 3, …:
// replay's monotonic filter would silently drop reordered events.
func diskEvents(t *testing.T, dir string) []Event {
	t.Helper()
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	var events []Event
	for _, s := range segs {
		data, err := os.ReadFile(s.path)
		if err != nil {
			t.Fatal(err)
		}
		name := filepath.Base(s.path)
		if _, err := scanFrames(name, data, false, func(ev Event) error {
			if ev.Seq != uint64(len(events))+1 {
				return fmt.Errorf("segment %s: seq %d follows %d", name, ev.Seq, len(events))
			}
			events = append(events, ev)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	return events
}

// frame returns ev's record as the committer writes it under seq.
func frame(t testing.TB, seq uint64, ev Event) []byte {
	t.Helper()
	b, err := appendFrame(nil, ev)
	if err != nil {
		t.Fatal(err)
	}
	sealFrame(b, seq)
	return b
}

// Concurrent appends through the group-commit pipeline — single appends
// interleaved with AppendBatch calls: every append is acked, a batch takes
// consecutive seqs from the one AppendBatch returned, the on-disk order
// matches seq order, and recovery sees them all.
func TestGroupCommitConcurrentAppends(t *testing.T) {
	dir := t.TempDir()
	l, _, err := openDir(dir, LogOptions{SegmentBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	const writers, perWriter, batchLen = 8, 25, 5
	expiry := func(w, i int) Event {
		return Event{Type: EventLeaseExpired, Job: "job-0001", Candidate: fmt.Sprintf("cand-%d-%d", w, i), Worker: "w"}
	}
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	firsts := make([][]uint64, writers) // batch writers: the seq each batch started at
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			if w%2 == 0 { // single appends
				for i := 0; i < perWriter; i++ {
					if err := l.Append(expiry(w, i)); err != nil {
						errs <- err
						return
					}
				}
				return
			}
			for i := 0; i < perWriter; i += batchLen {
				batch := make([]Event, batchLen)
				for k := range batch {
					batch[k] = expiry(w, i+k)
				}
				first, err := l.AppendBatch(batch)
				if err != nil {
					errs <- err
					return
				}
				firsts[w] = append(firsts[w], first)
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := l.Stats()
	if st.Appends != writers*perWriter {
		t.Errorf("stats report %d appends, want %d", st.Appends, writers*perWriter)
	}
	if st.GroupCommits == 0 || st.GroupCommits > st.Appends {
		t.Errorf("group commits %d outside (0, %d]", st.GroupCommits, st.Appends)
	}
	if st.BytesWritten == 0 {
		t.Error("no bytes written recorded")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	events := diskEvents(t, dir)
	if len(events) != writers*perWriter {
		t.Fatalf("found %d events on disk, want %d", len(events), writers*perWriter)
	}
	for w, starts := range firsts {
		for b, first := range starts {
			for k := 0; k < batchLen; k++ {
				if got, want := events[first-1+uint64(k)].Candidate, expiry(w, b*batchLen+k).Candidate; got != want {
					t.Fatalf("writer %d batch %d: seq %d holds %q, want %q", w, b, first+uint64(k), got, want)
				}
			}
		}
	}

	_, rec, err := openDir(dir, LogOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Expired) != writers*perWriter {
		t.Errorf("recovered %d events, want %d", len(rec.Expired), writers*perWriter)
	}
}

// LogOptions.SyncInterval is an inert shim: whatever it says, no append
// waits on a timer, and every ack still follows its own batch's fsync.
func TestSyncIntervalIgnored(t *testing.T) {
	const interval = 200 * time.Millisecond
	for _, iv := range []time.Duration{interval, -1} {
		t.Run(iv.String(), func(t *testing.T) {
			l, _, err := openDir(t.TempDir(), LogOptions{SyncInterval: iv})
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			const appends = 20
			t0 := time.Now()
			feedN(t, l, appends-1) // + the job_submitted feedN starts with
			if elapsed := time.Since(t0); elapsed >= interval {
				t.Errorf("%d sequential appends took %v: a commit waited on a %v timer", appends, elapsed, interval)
			}
			st := l.Stats()
			if st.GroupCommits != appends {
				t.Errorf("%d sequential appends made %d group commits, want one each", appends, st.GroupCommits)
			}
			if st.Fsyncs < st.GroupCommits {
				t.Errorf("%d fsyncs for %d acked batches: an ack did not follow an fsync", st.Fsyncs, st.GroupCommits)
			}
		})
	}
}

// Files of earlier releases — the JSON snapshot and the JSONL segments —
// are refused, empty or not, by an error that names the file and the two
// formats this release reads. Nothing in the directory is removed, and
// the error does not send the operator back to the earlier release's
// compaction, which writes the very file being refused.
func TestLegacyJSONLDirectory(t *testing.T) {
	job := `{"seq":1,"type":"job_submitted","job":"job-0001","name":"demo","program":"{prog}"}`
	for _, c := range []struct{ name, data string }{
		{legacySnapshot, `{"version":3,"tasks":{},"jobs":[{"id":"job-0001","name":"demo","program":"{prog}"}],"last_seq":7}`},
		{"wal-0000000000000008.jsonl", job + "\n"},
		{"wal.jsonl", job + "\n"},
	} {
		t.Run(c.name, func(t *testing.T) {
			for _, data := range []string{c.data, ""} {
				dir := t.TempDir()
				path := filepath.Join(dir, c.name)
				if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
					t.Fatal(err)
				}
				_, _, err := openDir(dir, LogOptions{})
				if err == nil || !strings.Contains(err.Error(), c.name) || !strings.Contains(err.Error(), "reads only snapshot.wal and wal-*.wal") {
					t.Fatalf("%d bytes of %s: %v, want a refusal naming the file and the formats this release reads", len(data), c.name, err)
				}
				if strings.Contains(err.Error(), "/admin/snapshot") {
					t.Errorf("the refusal suggests compacting with the earlier release: %v", err)
				}
				if _, err := os.Stat(path); err != nil {
					t.Errorf("the refused file is gone: %v", err)
				}
			}
		})
	}
}

// A model_recorded frame without its ucb field, as releases before the
// UCB was logged wrote it, refuses the open — in the last segment, where a
// torn tail would be cut, and in the checkpoint — with an error naming the
// file and the frame's byte offset. It never reaches the caller, so it is
// never replayed as UCB 0.
func TestModelRecordWithoutUCBRefused(t *testing.T) {
	jobEv := Event{Type: EventJobSubmitted, Job: "job-0001", Name: "demo", Program: "{prog}"}
	oldEv := Event{Type: EventModelRecorded, Job: "job-0001", Model: &ModelRecord{Name: "m1", Accuracy: 0.5, Round: 1}}
	job, old := frame(t, 1, jobEv), frame(t, 2, oldEv)
	if bytes.Contains(old, []byte(`"ucb"`)) {
		t.Fatal("the earlier release's frame carries a ucb")
	}
	for name, data := range map[string][]byte{
		segmentFileName(1): slices.Concat(job, old),
		checkpointFile:     slices.Concat(frame(t, 2, jobEv), old, frame(t, 2, Event{Type: EventCheckpoint, Frames: 2})),
	} {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
		var models int
		_, _, err := Open(dir, LogOptions{}, func(ev Event) error {
			if ev.Type == EventModelRecorded {
				models++
			}
			return nil
		})
		at := fmt.Sprintf("%s at byte %d", name, len(job))
		if err == nil || !strings.Contains(err.Error(), at) || !strings.Contains(err.Error(), "ucb") {
			t.Errorf("%s: %v, want a refusal naming %q and the missing ucb", name, err, at)
		}
		if models != 0 {
			t.Errorf("%s: %d model records applied", name, models)
		}
	}
}

// Full compaction retires covered segments into the recycle pool, and the
// next roll renames a pooled file back into service instead of creating.
func TestSegmentRecycling(t *testing.T) {
	dir := t.TempDir()
	l, _, err := openDir(dir, tinySegments)
	if err != nil {
		t.Fatal(err)
	}
	feedN(t, l, 20)
	if n := segmentCount(t, dir); n < 3 {
		t.Fatalf("need >= 3 segments, have %d", n)
	}
	store := NewStore()
	ts, err := store.CreateTask("job-0001")
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 20; i++ {
		ts.PutExample(Example{ID: i, Input: []float64{1, 2}, Output: []float64{3}, Enabled: true})
	}
	jobs := []JobMeta{{ID: "job-0001", Name: "demo", Program: "{prog}"}}
	if err := l.Compact(jobs, nil, nil, store, l.Seq()); err != nil {
		t.Fatal(err)
	}
	if n := segmentCount(t, dir); n != 1 {
		t.Errorf("full compaction left %d segments, want 1", n)
	}
	pool := listRecycled(dir)
	if len(pool) == 0 || len(pool) > maxRecycled {
		t.Fatalf("recycle pool holds %d files, want 1..%d", len(pool), maxRecycled)
	}
	for _, p := range pool {
		if info, err := os.Stat(p); err != nil || info.Size() != 0 {
			t.Errorf("recycled file %s not truncated: %v", p, err)
		}
	}

	// Enough appends to roll: the pool shrinks as files return to service.
	feedN(t, l, 20)
	if after := listRecycled(dir); len(after) >= len(pool) {
		t.Errorf("recycle pool did not shrink on reuse: %d -> %d", len(pool), len(after))
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	_, rec, err := openDir(dir, tinySegments)
	if err != nil {
		t.Fatal(err)
	}
	rts, _ := rec.Store.Task("job-0001")
	if got := len(rts.Examples()); got != 40 {
		t.Errorf("recovered %d examples, want 40", got)
	}
}
