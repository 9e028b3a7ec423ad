package storage

import (
	"bytes"
	"fmt"
	"maps"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

func ptr(x float64) *float64 { return &x }

// image renders everything a recovered state holds, in order, with every
// fed float as its IEEE-754 bits, so two states compare bit for bit.
func image(rec *recovered) string {
	var b strings.Builder
	fmt.Fprintf(&b, "jobs %+v\nabandoned %v\nexhausted %v\nexpired %v\npreempted %v\n",
		rec.Jobs, rec.Abandoned, rec.BudgetExhausted, rec.Expired, rec.Preempted)
	bits := func(v []float64) []uint64 {
		out := make([]uint64, len(v))
		for i, x := range v {
			out[i] = math.Float64bits(x)
		}
		return out
	}
	for _, id := range slices.Sorted(maps.Keys(rec.Store.tasks)) {
		ts, _ := rec.Store.Task(id)
		best, ok := ts.Best()
		ts.mu.RLock()
		next := ts.nextID
		ts.mu.RUnlock()
		models, ucbs := ts.runs()
		fmt.Fprintf(&b, "task %s next %d best %+v %v models %+v ucbs %x\n", id, next, best, ok, models, bits(ucbs))
		for _, ex := range ts.Examples() {
			fmt.Fprintf(&b, "  example %d %v %x %x\n", ex.ID, ex.Enabled, bits(ex.Input), bits(ex.Output))
		}
	}
	return b.String()
}

// The checkpoint restores exactly what replaying the WAL restores. A mixed
// store — two jobs submitted out of id order, a disabled example, a best
// model that is not the last, models leased at UCBs with low bits set, abandoned candidates on both jobs, a
// budget-exhausted job, and -0, subnormal and 1e300 floats — compacted and
// reopened equals the same events replayed out of the segments, bit for
// bit. rec.Events counts only the WAL tail, the next fed id continues the
// sequence, and two compactions of an unchanged store write the same bytes.
func TestSnapshotRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, _, err := openDir(dir, LogOptions{})
	if err != nil {
		t.Fatal(err)
	}
	events := []Event{
		{Type: EventJobSubmitted, Job: "job-0002", Name: "cats", Program: "{p2}"},
		{Type: EventJobSubmitted, Job: "job-0001", Name: "dogs", Program: "{p1}"},
		{Type: EventExampleFed, Job: "job-0001", Example: 1, Input: []float64{math.Copysign(0, -1), 5e-324}, Output: []float64{1}},
		{Type: EventExampleFed, Job: "job-0001", Example: 2, Input: []float64{1e300, -2.5}, Output: []float64{0}},
		{Type: EventExampleFed, Job: "job-0002", Example: 1, Input: []float64{0.5}, Output: nil},
		{Type: EventExampleRefined, Job: "job-0001", Example: 2, Enabled: false},
		{Type: EventExampleRefined, Job: "job-0001", Example: 1, Enabled: false},
		{Type: EventExampleRefined, Job: "job-0001", Example: 1, Enabled: true},
		{Type: EventModelRecorded, Job: "job-0001", Model: &ModelRecord{Name: "ResNet", Accuracy: 0.9, Cost: 5, Round: 1}, UCB: ptr(0.6944794283145839)},
		{Type: EventModelRecorded, Job: "job-0001", Model: &ModelRecord{Name: "AlexNet", Accuracy: 0.6, Cost: 2, Round: 3}, UCB: ptr(math.Nextafter(1, 2))},
		{Type: EventModelRecorded, Job: "job-0002", Model: &ModelRecord{Name: "GRU", Accuracy: 0.4, Cost: 1, Round: 2}, UCB: ptr(-0.25)},
		{Type: EventCandidateAbandoned, Job: "job-0002", Candidate: "VGG"},
		{Type: EventCandidateAbandoned, Job: "job-0001", Candidate: "LSTM"},
		{Type: EventCandidateAbandoned, Job: "job-0001", Candidate: "GRU"},
		{Type: EventBudgetExhausted, Job: "job-0002", Tenant: "cats", Cost: 3},
	}
	if _, err := l.AppendBatch(events); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l, wal, err := openDir(dir, LogOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if wal.Events != len(events) {
		t.Fatalf("replayed %d WAL events, want %d", wal.Events, len(events))
	}
	exhausted := slices.Collect(maps.Keys(wal.BudgetExhausted))
	var files [2][]byte
	for i := range files {
		if err := l.Compact(wal.Jobs, wal.Abandoned, exhausted, wal.Store, l.Seq()); err != nil {
			t.Fatal(err)
		}
		if files[i], err = os.ReadFile(filepath.Join(dir, checkpointFile)); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(files[0], files[1]) {
		t.Error("two compactions of an unchanged store wrote different checkpoints")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l, ck, err := openDir(dir, LogOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if ck.Events != 0 || l.Seq() != uint64(len(events)) {
		t.Errorf("boot after Compact: %d WAL events at seq %d, want 0 at %d", ck.Events, l.Seq(), len(events))
	}
	if got, want := image(ck), image(wal); got != want {
		t.Errorf("the checkpoint restored\n%s\nWAL replay restored\n%s", got, want)
	}
	ts, _ := ck.Store.Task("job-0001")
	if id := ts.Feed([]float64{1}, []float64{1}); id != 3 {
		t.Errorf("the next fed id is %d, want 3", id)
	}
}

// Two checkpoints of an unchanged store are byte-identical, however the
// abandoned map iterates and in whatever order the budget-exhausted jobs
// are given. (The name dates from when the checkpoint was JSON text.)
func TestSnapshotIsDeterministicJSON(t *testing.T) {
	s := NewStore()
	for _, id := range []string{"b", "a", "c"} {
		ts, _ := s.CreateTask(id)
		ts.Feed([]float64{1}, []float64{2})
	}
	jobs := []JobMeta{{ID: "b", Name: "x"}, {ID: "a", Name: "y"}, {ID: "c", Name: "z"}}
	abandoned := map[string][]string{"c": {"GRU"}, "a": {"VGG", "LSTM"}, "b": {"ResNet"}}
	var a, b bytes.Buffer
	if err := writeCheckpoint(&a, jobs, abandoned, []string{"c", "a", "b"}, s, 7); err != nil {
		t.Fatal(err)
	}
	if err := writeCheckpoint(&b, jobs, abandoned, []string{"b", "c", "a"}, s, 7); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("checkpoints of unchanged store differ")
	}
}

// Compacting an empty log writes a checkpoint that is its trailer alone,
// and opening it recovers nothing at seq 0.
func TestSnapshotEmptyStore(t *testing.T) {
	dir := t.TempDir()
	l, _, err := openDir(dir, LogOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Compact(nil, nil, nil, NewStore(), 0); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, checkpointFile))
	if err != nil {
		t.Fatal(err)
	}
	if got, _, err := scanAll(data, false); err != nil || len(got) != 1 || got[0].Type != EventCheckpoint || got[0].Frames != 0 || got[0].Seq != 0 {
		t.Fatalf("empty checkpoint holds %+v (%v), want the trailer alone", got, err)
	}
	l, rec, err := openDir(dir, LogOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if len(rec.Jobs) != 0 || len(rec.Store.tasks) != 0 || rec.Events != 0 || l.Seq() != 0 {
		t.Errorf("empty checkpoint recovered %+v at seq %d", rec, l.Seq())
	}
}

// A checkpoint loads only when it ends in exactly one trailer counting the
// frames before it, and a trailer found in a segment is refused.
func TestLoadCheckpointErrors(t *testing.T) {
	job := frame(t, 5, Event{Type: EventJobSubmitted, Job: "job-0001", Name: "demo", Program: "{prog}"})
	trailer := func(n int) []byte { return frame(t, 5, Event{Type: EventCheckpoint, Frames: n}) }
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	fresh := func() *recovered {
		return newRecovered()
	}
	for name, data := range map[string][]byte{
		"empty":               nil,
		"no trailer":          job,
		"count too high":      cat(job, trailer(2)),
		"count too low":       cat(job, trailer(0)),
		"frame after trailer": cat(job, trailer(1), job),
		"two trailers":        cat(job, trailer(1), trailer(1)),
		"zeros after trailer": cat(job, trailer(1), make([]byte, 20)),
		"torn after trailer":  cat(job, trailer(1), job[:frameHeader+3]),
	} {
		if _, err := applyCheckpoint(data, fresh().apply); err == nil {
			t.Errorf("%s: loaded", name)
		}
	}
	rec := fresh()
	if seq, err := applyCheckpoint(cat(job, trailer(1)), rec.apply); err != nil || seq != 5 || len(rec.Jobs) != 1 {
		t.Errorf("intact checkpoint: seq %d, jobs %+v, %v; want seq 5 and the job", seq, rec.Jobs, err)
	}

	dir := t.TempDir()
	seg := cat(job, frame(t, 6, Event{Type: EventCheckpoint, Frames: 1}))
	if err := os.WriteFile(filepath.Join(dir, segmentFileName(1)), seg, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := openDir(dir, LogOptions{}); err == nil || !strings.Contains(err.Error(), "checkpoint") {
		t.Errorf("a trailer in a segment: %v, want it refused", err)
	}
}
