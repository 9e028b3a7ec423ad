package storage

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"math"
	"os"
	"testing"
)

// exampleBatch builds n example_fed events with ids from..from+n-1.
func exampleBatch(from, n int) []Event {
	events := make([]Event, n)
	for i := range events {
		events[i] = Event{Type: EventExampleFed, Job: "job-0001", Example: from + i, Input: []float64{1, 2}, Output: []float64{3}}
	}
	return events
}

func TestAppendBatchEmptyAndClosed(t *testing.T) {
	l, _, err := openDir(t.TempDir(), LogOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if first, err := l.AppendBatch(nil); first != 0 || err != nil {
		t.Errorf("empty batch: first %d, err %v; want a no-op", first, err)
	}
	if st := l.Stats(); st.Seq != 0 || st.GroupCommits != 0 {
		t.Errorf("empty batch moved the log: %+v", st)
	}
	first, err := l.AppendBatch(exampleBatch(1, 3))
	if first != 1 || err != nil {
		t.Fatalf("first batch: first %d, err %v; want seq 1", first, err)
	}
	if first, _ = l.AppendBatch(exampleBatch(4, 2)); first != 4 {
		t.Errorf("second batch starts at seq %d, want 4", first)
	}
	if st := l.Stats(); st.Seq != 5 || st.Appends != 5 || st.GroupCommits != 2 {
		t.Errorf("after batches of 3 and 2: %+v, want seq 5, 5 appends, 2 group commits", st)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := l.AppendBatch(exampleBatch(6, 1)); err == nil {
		t.Error("AppendBatch after Close succeeded")
	}
	if err := l.Append(Event{Type: EventExampleFed, Job: "job-0001", Example: 6}); err == nil {
		t.Error("Append after Close succeeded")
	}
}

// One batch larger than several segments rolls mid-batch and recovers
// completely.
func TestAppendBatchSpansSegmentRoll(t *testing.T) {
	dir := t.TempDir()
	l, _, err := openDir(dir, tinySegments)
	if err != nil {
		t.Fatal(err)
	}
	feedN(t, l, 0) // job_submitted
	const n = 20
	if _, err := l.AppendBatch(exampleBatch(1, n)); err != nil {
		t.Fatal(err)
	}
	if st := l.Stats(); st.GroupCommits != 2 {
		t.Errorf("%d group commits, want 2 (the submit, then the whole batch)", st.GroupCommits)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if segs := segmentCount(t, dir); segs < 3 {
		t.Fatalf("a %d-record batch over %d-byte segments left %d segments, want several", n, tinySegments.SegmentBytes, segs)
	}
	if got := len(diskEvents(t, dir)); got != n+1 {
		t.Fatalf("%d records on disk, want %d", got, n+1)
	}
	l2, rec, err := openDir(dir, tinySegments)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	ts, _ := rec.Store.Task("job-0001")
	if got := len(ts.Examples()); got != n || rec.Events != n+1 {
		t.Errorf("recovered %d examples from %d events, want %d from %d", got, rec.Events, n, n+1)
	}
}

// A crash mid-commit can tear a batch anywhere: recovery keeps exactly the
// records that are whole, whichever batch they came from, and drops the
// torn one and everything after it.
func TestTornTailInsideBatch(t *testing.T) {
	dir := t.TempDir()
	l, _, err := openDir(dir, LogOptions{})
	if err != nil {
		t.Fatal(err)
	}
	feedN(t, l, 0) // job_submitted
	if _, err := l.AppendBatch(exampleBatch(1, 6)); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	path := activeSegment(t, dir)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Cut in the middle of the batch's 4th record (the file's 5th frame).
	starts := frameStarts(t, data)
	cut := (starts[4] + starts[5]) / 2
	if err := os.Truncate(path, int64(cut)); err != nil {
		t.Fatal(err)
	}

	l2, rec, err := openDir(dir, LogOptions{})
	if err != nil {
		t.Fatalf("tail torn inside a batch rejected: %v", err)
	}
	defer l2.Close()
	ts, _ := rec.Store.Task("job-0001")
	examples := ts.Examples()
	if len(examples) != 3 || rec.Events != 4 || l2.Seq() != 4 {
		t.Fatalf("recovered %d examples, %d events, seq %d; want the 3-example whole-record prefix (4 events, seq 4)",
			len(examples), rec.Events, l2.Seq())
	}
	for i, ex := range examples {
		if ex.ID != i+1 {
			t.Errorf("recovered example %d has id %d, want %d", i, ex.ID, i+1)
		}
	}
}

// frameStarts returns the offset of every frame in data plus len(data),
// reading only the length fields.
func frameStarts(t *testing.T, data []byte) []int {
	t.Helper()
	var starts []int
	for pos := 0; pos < len(data); pos += frameHeader + int(binary.LittleEndian.Uint32(data[pos:])) {
		starts = append(starts, pos)
	}
	return append(starts, len(data))
}

// Records are framed before their seq is known and sealed at commit; the
// bytes on disk must be exactly the documented frame, built here from the
// layout alone: length, CRC32C over body then seq, seq, and a kind 2
// binary body for example_fed or a kind 1 JSON body (json.Marshal minus
// the seq) for everything else.
func TestRecordFrameLayout(t *testing.T) {
	dir := t.TempDir()
	l, _, err := openDir(dir, LogOptions{})
	if err != nil {
		t.Fatal(err)
	}
	events := exampleBatch(1, 12)
	events[3].Input = []float64{math.Copysign(0, -1), 5e-324, math.MaxFloat64}
	events[4].Output = nil
	events = append(events, Event{Type: EventModelRecorded, Job: "job-0001", Model: &ModelRecord{Name: "m", Accuracy: 0.5}, UCB: ptr(0.75)})
	if _, err := l.AppendBatch(events); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	le := binary.LittleEndian
	var want []byte
	for i, ev := range events {
		var body []byte
		if ev.Type == EventExampleFed {
			body = append([]byte{2, byte(len(ev.Job))}, ev.Job...)
			body = binary.AppendVarint(body, int64(ev.Example))
			for _, v := range [][]float64{ev.Input, ev.Output} {
				body = append(body, byte(len(v)))
				for _, x := range v {
					body = le.AppendUint64(body, math.Float64bits(x))
				}
			}
		} else {
			js, err := json.Marshal(ev)
			if err != nil {
				t.Fatal(err)
			}
			body = append([]byte{1, '{'}, bytes.TrimPrefix(js, []byte(`{"seq":0,`))...)
		}
		seq := le.AppendUint64(nil, uint64(i+1))
		crc := crc32.Checksum(append(append([]byte(nil), body...), seq...), crc32.MakeTable(crc32.Castagnoli))
		want = le.AppendUint32(want, uint32(len(body)))
		want = le.AppendUint32(want, crc)
		want = append(append(want, seq...), body...)
	}
	got, err := os.ReadFile(activeSegment(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("on-disk records differ from the documented frames:\n got %x\nwant %x", got, want)
	}
	if x := diskEvents(t, dir)[3].Input[0]; x != 0 || !math.Signbit(x) {
		t.Error("-0 did not survive the round trip")
	}
}
