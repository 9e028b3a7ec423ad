package storage

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// appendMixedBatches writes a job submission and then several batches of
// both record kinds to l, and returns every appended event with its seq.
// Zero floats give the frames runs of zero bytes, the shape a torn tail
// of a zero-extended file has.
func appendMixedBatches(t testing.TB, l *Log) []Event {
	t.Helper()
	batches := [][]Event{
		{{Type: EventJobSubmitted, Job: "job-0001", Name: "demo", Program: "{prog}"}},
		exampleBatch(1, 3),
		{{Type: EventExampleFed, Job: "job-0001", Example: 4, Input: []float64{0, 0}, Output: []float64{0}}},
		{
			{Type: EventModelRecorded, Job: "job-0001", Model: &ModelRecord{Name: "m1", Accuracy: 0.5, Cost: 1, Round: 1}, UCB: ptr(0.75)},
			{Type: EventCandidateAbandoned, Job: "job-0001", Candidate: "m9"},
		},
		{
			{Type: EventExampleFed, Job: "job-0001", Example: 5, Input: []float64{math.Copysign(0, -1), 1}, Output: []float64{2.5}},
			{Type: EventExampleFed, Job: "job-0001", Example: 6, Input: []float64{1e300, 5e-324}, Output: []float64{-7}},
		},
	}
	var all []Event
	for _, b := range batches {
		first, err := l.AppendBatch(b)
		if err != nil {
			t.Fatal(err)
		}
		for i, ev := range b {
			ev.Seq = first + uint64(i)
			all = append(all, ev)
		}
	}
	return all
}

// scanAll runs scanFrames over data and returns what it applied.
func scanAll(data []byte, last bool) ([]Event, int, error) {
	var got []Event
	end, err := scanFrames("seg", data, last, func(ev Event) error {
		got = append(got, ev)
		return nil
	})
	return got, end, err
}

// Every byte prefix of a multi-batch active segment recovers exactly the
// frames it fully contains and truncates the rest away: a crash can stop
// the write stream after any byte.
func TestEveryPrefixRecoversWholeFrames(t *testing.T) {
	src := t.TempDir()
	l, _, err := openDir(src, LogOptions{})
	if err != nil {
		t.Fatal(err)
	}
	appendMixedBatches(t, l)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(activeSegment(t, src))
	if err != nil {
		t.Fatal(err)
	}
	starts := frameStarts(t, data)
	path := filepath.Join(t.TempDir(), segmentFileName(1))
	for p := 0; p <= len(data); p++ {
		if err := os.WriteFile(path, data[:p], 0o644); err != nil {
			t.Fatal(err)
		}
		whole := 0 // frames the prefix fully contains
		for whole+1 < len(starts) && starts[whole+1] <= p {
			whole++
		}
		var horizon uint64
		applied := 0
		maxSeq, err := replaySegment(path, &horizon, func(Event) error { applied++; return nil }, true)
		if err != nil {
			t.Fatalf("prefix of %d bytes: %v", p, err)
		}
		if applied != whole || maxSeq != uint64(whole) {
			t.Fatalf("prefix of %d bytes replayed %d events up to seq %d, want the %d whole frames", p, applied, maxSeq, whole)
		}
		if info, err := os.Stat(path); err != nil || info.Size() != int64(starts[whole]) {
			t.Fatalf("prefix of %d bytes left %v bytes (%v), want it truncated to %d", p, info.Size(), err, starts[whole])
		}
	}
}

// Three crash points through Open: on a batch boundary, inside a frame
// in the middle of an AppendBatch, and inside a frame header. Recovery
// keeps the whole frames, and the log appends cleanly after them.
func TestCrashPrefixesThroughOpenDir(t *testing.T) {
	src := t.TempDir()
	l, _, err := openDir(src, LogOptions{})
	if err != nil {
		t.Fatal(err)
	}
	events := appendMixedBatches(t, l)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(activeSegment(t, src))
	if err != nil {
		t.Fatal(err)
	}
	starts := frameStarts(t, data)
	for _, c := range []struct {
		name  string
		cut   int
		whole int
	}{
		{"batch boundary", starts[4], 4},                    // after the 3-example batch
		{"mid-AppendBatch", (starts[2] + starts[3]) / 2, 2}, // inside its second record
		{"mid-header", starts[7] + frameHeader/2, 7},        // inside the last batch's first header
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, segmentFileName(1)), data[:c.cut], 0o644); err != nil {
				t.Fatal(err)
			}
			l, rec, err := openDir(dir, LogOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if rec.Events != c.whole || l.Seq() != uint64(c.whole) {
				t.Fatalf("recovered %d events at seq %d, want %d", rec.Events, l.Seq(), c.whole)
			}
			next := events[c.whole]
			next.Seq = 0
			if err := l.Append(next); err != nil {
				t.Fatal(err)
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			if got := diskEvents(t, dir); !reflect.DeepEqual(got, events[:c.whole+1]) {
				t.Errorf("after recovery and one append the log holds %+v, want %+v", got, events[:c.whole+1])
			}
		})
	}
}

// Every single-bit flip is caught. In a sealed segment it is an error. In
// the active segment it is an error, or — when the flip is in the final
// frame, which a crash could have left half-written — a truncation back to
// the frame before it. Replay never yields a value that was not appended.
func TestEveryBitFlipDetected(t *testing.T) {
	dir := t.TempDir()
	// Segments sized so that each one holds several frames: the
	// model_recorded and candidate_abandoned frames (207 bytes with the
	// ucb) share one.
	l, _, err := openDir(dir, LogOptions{SegmentBytes: 224})
	if err != nil {
		t.Fatal(err)
	}
	events := appendMixedBatches(t, l)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	bySeq := make(map[uint64]Event, len(events))
	for _, ev := range events {
		bySeq[ev.Seq] = ev
	}
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 2 {
		t.Fatalf("need a sealed and an active segment, have %d segments", len(segs))
	}
	check := func(t *testing.T, data []byte, last bool) {
		starts := frameStarts(t, data)
		if len(starts) < 3 {
			t.Fatalf("segment holds %d frames, want several", len(starts)-1)
		}
		final := starts[len(starts)-2]
		for bit := 0; bit < 8*len(data); bit++ {
			flipped := bytes.Clone(data)
			flipped[bit/8] ^= 1 << (bit % 8)
			got, end, err := scanAll(flipped, last)
			for _, ev := range got {
				if !reflect.DeepEqual(ev, bySeq[ev.Seq]) {
					t.Fatalf("bit %d: replayed %+v, which was never appended", bit, ev)
				}
			}
			switch {
			case err != nil:
			case !last:
				t.Fatalf("bit %d of a sealed segment: accepted", bit)
			case bit/8 < final:
				t.Fatalf("bit %d (byte %d, before the final frame at %d): read as a torn tail at %d", bit, bit/8, final, end)
			case end != final:
				t.Fatalf("bit %d in the final frame: truncated to %d, want %d", bit, end, final)
			}
		}
	}
	for i, s := range segs {
		data, err := os.ReadFile(s.path)
		if err != nil {
			t.Fatal(err)
		}
		last := i == len(segs)-1
		t.Run(filepath.Base(s.path), func(t *testing.T) { check(t, data, last) })
	}
}

// mixedCheckpoint compacts the state appendMixedBatches' events recover
// to, with one example disabled and the job budget-exhausted so that every
// kind of checkpoint frame is present, and returns the checkpoint's bytes.
func mixedCheckpoint(t testing.TB) []byte {
	t.Helper()
	dir := t.TempDir()
	l, _, err := openDir(dir, LogOptions{})
	if err != nil {
		t.Fatal(err)
	}
	appendMixedBatches(t, l)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l, rec, err := openDir(dir, LogOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ts, _ := rec.Store.Task("job-0001")
	if err := ts.Refine(2, false); err != nil {
		t.Fatal(err)
	}
	if err := l.Compact(rec.Jobs, rec.Abandoned, []string{"job-0001"}, rec.Store, l.Seq()); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, checkpointFile))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// Every strict byte prefix and every single-bit flip of a checkpoint makes
// Open fail. The checkpoint is installed by rename, so unlike the
// active segment it has no torn tail to forgive. A refusal returns no
// state and leaves the file as it was.
func TestEveryCheckpointDamageRefused(t *testing.T) {
	data := mixedCheckpoint(t)
	dir := t.TempDir()
	path := filepath.Join(dir, checkpointFile)
	refused := func(what string, b []byte) {
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		l, rec, err := openDir(dir, LogOptions{})
		if err == nil {
			l.Close()
			t.Fatalf("%s: accepted", what)
		}
		if l != nil || rec != nil {
			t.Fatalf("%s: refused (%v) but returned state", what, err)
		}
		if got, _ := os.ReadFile(path); !bytes.Equal(got, b) {
			t.Fatalf("%s: the refused checkpoint changed on disk", what)
		}
	}
	for p := 0; p < len(data); p++ {
		refused(fmt.Sprintf("prefix of %d bytes", p), data[:p])
	}
	for bit := 0; bit < 8*len(data); bit++ {
		flipped := bytes.Clone(data)
		flipped[bit/8] ^= 1 << (bit % 8)
		refused(fmt.Sprintf("bit %d", bit), flipped)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	l, rec, err := openDir(dir, LogOptions{})
	if err != nil {
		t.Fatalf("the intact checkpoint: %v", err)
	}
	defer l.Close()
	if len(rec.Jobs) != 1 || !rec.BudgetExhausted["job-0001"] {
		t.Errorf("the intact checkpoint recovered %+v", rec)
	}
}

// The length field is the one the CRC does not cover. A damaged length on
// a frame that is not the last must not pass for a torn tail, whether it
// now runs past the end of the file or ends exactly there.
func TestDamagedLengthIsNotATornTail(t *testing.T) {
	dir := t.TempDir()
	l, _, err := openDir(dir, LogOptions{})
	if err != nil {
		t.Fatal(err)
	}
	appendMixedBatches(t, l)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(activeSegment(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	starts := frameStarts(t, data)
	k := 2 // a frame in the middle
	for _, size := range []int{len(data) - starts[k], len(data) - starts[k] + 100} {
		damaged := bytes.Clone(data)
		binary.LittleEndian.PutUint32(damaged[starts[k]:], uint32(size-frameHeader))
		if _, _, err := scanAll(damaged, true); err == nil || !strings.Contains(err.Error(), "corrupt") {
			t.Errorf("frame %d's length set to end %d bytes past its start: %v, want a corrupt-record error", k, size, err)
		}
	}
}

// A fed float changed on disk — its IEEE-754 bits in a segment's frame or
// in the checkpoint's — must not be loaded as if it had been fed. A record
// follows it, so in a segment this is corruption, not a torn tail.
func TestChangedFedFloatRejected(t *testing.T) {
	for _, file := range []string{"segment", checkpointFile} {
		t.Run(file, func(t *testing.T) {
			dir := t.TempDir()
			l, _, err := openDir(dir, LogOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if err := l.AppendJobSubmitted("job-0001", "demo", "{prog}"); err != nil {
				t.Fatal(err)
			}
			if err := l.AppendExampleFed("job-0001", 1, []float64{0.25}, []float64{1}); err != nil {
				t.Fatal(err)
			}
			if err := l.AppendExampleFed("job-0001", 2, []float64{3}, []float64{1}); err != nil {
				t.Fatal(err)
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			path := activeSegment(t, dir)
			if file == checkpointFile {
				l, rec, err := openDir(dir, LogOptions{})
				if err != nil {
					t.Fatal(err)
				}
				if err := l.Compact(rec.Jobs, nil, nil, rec.Store, l.Seq()); err != nil {
					t.Fatal(err)
				}
				if err := l.Close(); err != nil {
					t.Fatal(err)
				}
				path = filepath.Join(dir, checkpointFile)
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			bits := func(x float64) []byte { return binary.LittleEndian.AppendUint64(nil, math.Float64bits(x)) }
			changed := bytes.Replace(data, bits(0.25), bits(0.75), 1)
			if bytes.Equal(changed, data) {
				t.Fatal("the fed float 0.25 is not on disk as its bits")
			}
			if err := os.WriteFile(path, changed, 0o644); err != nil {
				t.Fatal(err)
			}
			_, rec, err := openDir(dir, LogOptions{})
			if err == nil {
				ts, _ := rec.Store.Task("job-0001")
				t.Fatalf("a changed fed float was loaded as truth: %+v", ts.Examples())
			}
			if !strings.Contains(err.Error(), "corrupt") {
				t.Errorf("rejected with %v, want a corrupt-record error", err)
			}
		})
	}
}

// FuzzReplaySegment: arbitrary segment bytes never panic the replay scan,
// and every record it applies is a frame whose CRC holds, at the offsets
// the scan walked, with the seq the frame carries. A scan without error
// consumed the whole input unless it stopped at a torn tail of the active
// segment. The checkpoint loader, run on the same bytes, never panics and
// loads them only when they are whole frames ending in the one trailer,
// which counts the frames before it.
func FuzzReplaySegment(f *testing.F) {
	var seg []byte
	for i, ev := range []Event{
		{Type: EventJobSubmitted, Job: "job-0001", Name: "demo", Program: "{prog}"},
		{Type: EventExampleFed, Job: "job-0001", Example: 1, Input: []float64{0.5, -0}, Output: []float64{1}},
		{Type: EventModelRecorded, Job: "job-0001", Model: &ModelRecord{Name: "m", Accuracy: 0.5}, UCB: ptr(0.75)},
	} {
		seg = append(seg, frame(f, uint64(i+1), ev)...)
	}
	f.Add(seg, true)
	f.Add(seg, false)
	f.Add(seg[:len(seg)-5], true)
	f.Add(append(bytes.Clone(seg), make([]byte, 40)...), true)
	f.Add(mixedCheckpoint(f), false)
	table := crc32.MakeTable(crc32.Castagnoli)
	f.Fuzz(func(t *testing.T, data []byte, last bool) {
		got, end, err := scanAll(data, last)
		pos := 0
		for _, ev := range got {
			n := int(binary.LittleEndian.Uint32(data[pos:]))
			body := data[pos+frameHeader : pos+frameHeader+n]
			crc := crc32.Update(crc32.Checksum(body, table), table, data[pos+8:pos+frameHeader])
			if crc != binary.LittleEndian.Uint32(data[pos+4:]) {
				t.Fatalf("applied the frame at byte %d although its CRC fails", pos)
			}
			if seq := binary.LittleEndian.Uint64(data[pos+8:]); ev.Seq != seq {
				t.Fatalf("frame at byte %d carries seq %d, applied as %d", pos, seq, ev.Seq)
			}
			pos += frameHeader + n
		}
		if end != pos {
			t.Fatalf("scan ended at %d, after the applied frames at %d", end, pos)
		}
		if err == nil && end < len(data) && !last {
			t.Fatalf("a sealed scan stopped at %d of %d bytes without an error", end, len(data))
		}

		rec := newRecovered()
		seq, err := applyCheckpoint(data, rec.apply)
		if err != nil {
			return
		}
		all, _, err := scanAll(data, false)
		if err != nil || len(all) == 0 {
			t.Fatalf("loaded a checkpoint that is not whole frames: %v", err)
		}
		trailer := all[len(all)-1]
		if trailer.Type != EventCheckpoint || trailer.Frames != len(all)-1 || trailer.Seq != seq {
			t.Fatalf("loaded a checkpoint of %d frames ending in %+v", len(all), trailer)
		}
		for _, ev := range all[:len(all)-1] {
			if ev.Type == EventCheckpoint {
				t.Fatalf("loaded a checkpoint with a trailer before its last frame")
			}
		}
	})
}
