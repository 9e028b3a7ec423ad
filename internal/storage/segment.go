package storage

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"

	"repro/internal/rawf64"
)

// Segment file layout. The WAL is a sequence of fixed-size-ish segments of
// CRC-framed binary records, named by the first sequence number they may
// hold:
//
//	wal-0000000000000001.wal   (sealed)
//	wal-0000000000004096.wal   (sealed)
//	wal-0000000000008210.wal   (active, appended to)
//
// The name is an ordering key and a lower bound, not a promise that the
// first record carries exactly that seq: compaction may drop a covered
// prefix of events without renaming, and a fresh segment opened after a
// full compaction is named lastWritten+1 before anything is appended.
// Replay therefore never trusts names for anything but ordering; the
// per-record seq field is authoritative.
//
// A record is one frame, all integers little-endian:
//
//	u32 body length · u32 CRC · u64 seq · body
//
// The CRC is CRC32C (Castagnoli) over the body, continued over the 8 seq
// bytes — body first, so AppendBatch checksums the body outside the log
// mutex and the committer extends it once the seq is known. The body is a
// kind byte and its payload:
//
//	kind 1  the event as JSON, without its seq
//	kind 2  example_fed: uvarint len(job) · job · varint example ·
//	        input · output   (each a rawf64 vector: uvarint n · n×f64)
//
// Kind 2 carries what replay of example_fed reads and nothing else; the
// floats are their IEEE-754 bits, so a fed example costs 8 bytes per float
// on disk instead of its decimal text. An event kind 2 cannot carry (a
// non-finite float) is encoded as kind 1, which refuses it as JSON always
// has.
//
// Torn tails: in the last segment only, replay truncates back to the last
// intact frame when what follows it is an incomplete header, a frame whose
// declared length runs past the end of the file, a frame whose CRC fails
// and that is followed by nothing but zero bytes, or an all-zero remainder
// — the shapes a crash mid-commit leaves. The length is the one field the
// CRC does not cover, so before calling such a frame torn replay checks
// that it is not an intact frame under another length followed by the
// next record's header; that is a damaged length, not a torn write.
// Anything else is a corrupt-record error naming the segment and byte
// offset: a CRC failure with data after it, an undecodable body, an
// unknown kind, payload bytes left over — and any damage at all in a
// sealed segment, which was fsynced before its successor existed.
//
// The checkpoint, snapshot.wal, is made of the same frames. Log.Compact
// writes it as one sequential run, per job in registry order (so equal
// states give equal bytes): its job_submitted, a kind-2 example_fed per
// example in id order, an example_refined (enabled false) per disabled
// example, a model_recorded per model in completion order, each carrying
// the UCB its arm was leased at, a candidate_abandoned per abandoned
// candidate and its budget_exhausted. Every frame carries the
// checkpoint's horizon seq. The last frame is the trailer, a kind-1
// checkpoint event whose frames field counts the frames before it. Open
// scans the checkpoint as it scans a sealed segment — any damage is an
// error and nothing is truncated — streaming every frame but the trailer,
// fails unless the file ends in exactly one trailer with a matching count,
// and replays the segments from the trailer's seq.
//
// Upgrading: the files of earlier releases — the JSON snapshot.json and
// the JSONL segments wal-<seq>.jsonl and wal.jsonl — are not read. Open
// refuses a data directory holding any of them and names the file: this
// release reads only snapshot.wal and wal-*.wal. A model_recorded frame
// without its ucb field, as releases before the UCB was logged wrote them,
// is a corrupt-record error naming the file and byte offset; it is never
// replayed as UCB 0.
//
// Recycled files (recycled-<origin>.seg) are retired segments kept around,
// truncated to zero, for the next roll to rename back into service —
// segment reuse instead of delete/create keeps directory churn constant
// under sustained load. They deliberately do not match the wal-*.wal glob,
// so recovery never replays one. Recycling saves the create/unlink
// metadata traffic only; segments are not preallocated.
const (
	segmentPrefix = "wal-"
	segmentSuffix = ".wal"
	segmentSeqLen = 16 // zero-padded decimal digits in the name

	checkpointFile = "snapshot.wal"

	legacySnapshot = "snapshot.json" // the JSON snapshot of earlier releases
	legacySuffix   = ".jsonl"        // wal-<seq>.jsonl and wal.jsonl of earlier releases

	recyclePrefix = "recycled-"
	recycleSuffix = ".seg"
	maxRecycled   = 2 // pool cap; beyond this, retired segments are unlinked
)

// Frame layout constants; see the segment layout above.
const (
	frameHeader = 16 // u32 body length · u32 CRC · u64 seq

	kindJSON = 1
	kindFed  = 2
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// jsonSeqHead opens json.Marshal of an Event with Seq 0 (seq is its first
// field and has no omitempty); kind 1 bodies drop it.
const jsonSeqHead = `{"seq":0,`

// appendFrame appends ev as a frame with its seq left zero and the body's
// own CRC in the CRC slot; sealFrame completes both once the seq is known.
func appendFrame(dst []byte, ev Event) ([]byte, error) {
	start := len(dst)
	dst = append(dst, make([]byte, frameHeader)...)
	dst, err := appendBody(dst, ev)
	if err != nil {
		return dst[:start], err
	}
	body := dst[start+frameHeader:]
	binary.LittleEndian.PutUint32(dst[start:], uint32(len(body)))
	binary.LittleEndian.PutUint32(dst[start+4:], crc32.Checksum(body, castagnoli))
	return dst, nil
}

// sealFrame writes seq into the frame appendFrame built and extends its
// body CRC over the seq bytes. It returns the frame's size.
func sealFrame(frame []byte, seq uint64) int {
	binary.LittleEndian.PutUint64(frame[8:], seq)
	crc := crc32.Update(binary.LittleEndian.Uint32(frame[4:]), castagnoli, frame[8:frameHeader])
	binary.LittleEndian.PutUint32(frame[4:], crc)
	return frameHeader + int(binary.LittleEndian.Uint32(frame))
}

// appendBody appends ev's kind byte and payload.
func appendBody(dst []byte, ev Event) ([]byte, error) {
	if ev.Type == EventExampleFed && rawf64.NonFinite(ev.Input) < 0 && rawf64.NonFinite(ev.Output) < 0 {
		dst = append(dst, kindFed)
		dst = binary.AppendUvarint(dst, uint64(len(ev.Job)))
		dst = append(dst, ev.Job...)
		dst = binary.AppendVarint(dst, int64(ev.Example))
		dst = rawf64.AppendVector(dst, ev.Input)
		return rawf64.AppendVector(dst, ev.Output), nil
	}
	ev.Seq = 0 // a non-finite example_fed lands here too: JSON refuses it
	data, err := json.Marshal(ev)
	if err != nil {
		return dst, fmt.Errorf("storage: encoding WAL event: %w", err)
	}
	return append(append(dst, kindJSON, '{'), data[len(jsonSeqHead):]...), nil
}

// decodeBody decodes a frame body (kind byte + payload) into an event
// without its seq.
func decodeBody(body []byte) (Event, error) {
	if len(body) == 0 {
		return Event{}, fmt.Errorf("empty body")
	}
	var ev Event
	switch body[0] {
	case kindJSON:
		if err := json.Unmarshal(body[1:], &ev); err != nil {
			return Event{}, err
		}
		if ev.Type == EventModelRecorded && (ev.Model == nil || ev.UCB == nil) {
			return Event{}, fmt.Errorf("model_recorded without its model and ucb (an earlier release wrote it)")
		}
	case kindFed:
		job, p, err := readBytes(body[1:])
		if err != nil {
			return Event{}, err
		}
		example, k := binary.Varint(p)
		if k <= 0 {
			return Event{}, fmt.Errorf("bad example id")
		}
		ev = Event{Type: EventExampleFed, Job: string(job), Example: int(example)}
		if ev.Input, p, err = rawf64.ReadVector(p[k:]); err != nil {
			return Event{}, err
		}
		if ev.Output, p, err = rawf64.ReadVector(p); err != nil {
			return Event{}, err
		}
		if len(p) != 0 {
			return Event{}, fmt.Errorf("%d trailing payload bytes", len(p))
		}
	default:
		return Event{}, fmt.Errorf("unknown record kind %d", body[0])
	}
	return ev, nil
}

// readBytes reads a uvarint-length-prefixed byte string off p.
func readBytes(p []byte) (s, rest []byte, err error) {
	n, k := binary.Uvarint(p)
	if k <= 0 || n > uint64(len(p)-k) {
		return nil, nil, fmt.Errorf("bad string length")
	}
	return p[k : k+int(n)], p[k+int(n):], nil
}

// scanFrames passes each intact record of a segment's bytes to apply, in
// order, and returns the offset just past the last one. With last set
// (the active segment) a torn tail ends the scan without error and the
// returned offset is where to truncate; every other defect, and any
// defect at all in a sealed segment, is a corrupt-record error naming the
// segment and the byte offset of the bad frame.
func scanFrames(name string, data []byte, last bool, apply func(Event) error) (int, error) {
	pos := 0
	for pos < len(data) {
		rest := data[pos:]
		size, why := checkFrame(rest)
		if why == "" {
			ev, err := decodeBody(rest[frameHeader:size])
			if err != nil {
				return pos, fmt.Errorf("storage: corrupt WAL record in %s at byte %d: %v", name, pos, err)
			}
			ev.Seq = binary.LittleEndian.Uint64(rest[8:])
			if err := apply(ev); err != nil {
				return pos, err
			}
			pos += size
			continue
		}
		if last && torn(rest, size) {
			return pos, nil
		}
		return pos, fmt.Errorf("storage: corrupt WAL record in %s at byte %d: %s", name, pos, why)
	}
	return pos, nil
}

// checkFrame validates the frame at the start of rest: it returns the
// frame's declared size and, when the frame is not intact, why.
func checkFrame(rest []byte) (size int, why string) {
	if len(rest) < frameHeader {
		return 0, "incomplete frame header"
	}
	size = frameHeader + int(binary.LittleEndian.Uint32(rest))
	if size > len(rest) {
		return size, fmt.Sprintf("frame of %d bytes runs past the end of the segment", size)
	}
	crc := crc32.Update(crc32.Checksum(rest[frameHeader:size], castagnoli), castagnoli, rest[8:frameHeader])
	if crc != binary.LittleEndian.Uint32(rest[4:]) {
		return size, "CRC mismatch"
	}
	return size, ""
}

// torn reports whether the defective frame at the start of rest, of
// declared size, is the tail a crash mid-commit leaves behind (see the
// segment layout above).
func torn(rest []byte, size int) bool {
	if len(rest) < frameHeader {
		return true
	}
	if size < len(rest) && len(bytes.TrimLeft(rest[size:], "\x00")) > 0 {
		return false // a CRC failure with data after it
	}
	return !misframed(rest)
}

// misframed reports whether the frame at the start of rest is intact under
// some length other than the one its header declares and is followed by
// the next record's header: its length field is damaged. Candidate ends
// only grow, so the body CRC is extended rather than recomputed and the
// search stays linear in len(rest).
func misframed(rest []byte) bool {
	seq := rest[8:frameHeader]
	want := binary.LittleEndian.Uint32(rest[4:])
	var next [8]byte
	binary.LittleEndian.PutUint64(next[:], binary.LittleEndian.Uint64(seq)+1)
	crc, summed := uint32(0), frameHeader
	for from := frameHeader + 1 + 8; from < len(rest); {
		i := bytes.Index(rest[from:], next[:])
		if i < 0 {
			return false
		}
		end := from + i - 8 // where the next header, whose seq field this is, starts
		crc, summed = crc32.Update(crc, castagnoli, rest[summed:end]), end
		if crc32.Update(crc, castagnoli, seq) == want {
			return true
		}
		from += i + 1
	}
	return false
}

// writeCheckpoint writes the state Compact captured as checkpoint frames,
// each sealed with the horizon seq through, and the trailer that counts
// them (see the layout above). It writes the listed jobs only: a job
// submitted after the caller listed them has its job_submitted above the
// horizon, so all its events replay from the tail, and a checkpoint frame
// for it would precede its job.
func writeCheckpoint(w io.Writer, jobs []JobMeta, abandoned map[string][]string, budgetExhausted []string, store *Store, through uint64) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	var frame []byte
	frames := 0
	var err error
	put := func(ev Event) {
		if err != nil {
			return
		}
		if frame, err = appendFrame(frame[:0], ev); err == nil {
			sealFrame(frame, through)
			_, err = bw.Write(frame)
			frames++
		}
	}
	for _, m := range jobs {
		put(Event{Type: EventJobSubmitted, Job: m.ID, Name: m.Name, Program: m.Program})
		if ts, ok := store.Task(m.ID); ok {
			exs := ts.Examples()
			models, ucbs := ts.runs()
			for _, ex := range exs {
				put(Event{Type: EventExampleFed, Job: m.ID, Example: ex.ID, Input: ex.Input, Output: ex.Output})
			}
			for _, ex := range exs {
				if !ex.Enabled {
					put(Event{Type: EventExampleRefined, Job: m.ID, Example: ex.ID})
				}
			}
			for i := range models {
				put(Event{Type: EventModelRecorded, Job: m.ID, Model: &models[i], UCB: &ucbs[i]})
			}
		}
		for _, name := range abandoned[m.ID] {
			put(Event{Type: EventCandidateAbandoned, Job: m.ID, Candidate: name})
		}
		if slices.Contains(budgetExhausted, m.ID) {
			put(Event{Type: EventBudgetExhausted, Job: m.ID})
		}
	}
	put(Event{Type: EventCheckpoint, Frames: frames})
	if err == nil {
		err = bw.Flush()
	}
	if err != nil {
		return fmt.Errorf("storage: writing checkpoint: %w", err)
	}
	return nil
}

// applyCheckpoint passes a checkpoint's frames to apply and returns its
// horizon seq. It scans the checkpoint as a sealed segment, so any damage
// is an error, and fails unless the last frame, and no other, is a trailer
// counting the frames before it.
func applyCheckpoint(data []byte, apply func(Event) error) (uint64, error) {
	var trailer *Event
	frames := 0
	_, err := scanFrames(checkpointFile, data, false, func(ev Event) error {
		switch {
		case trailer != nil:
			return fmt.Errorf("storage: %s holds a frame after its trailer", checkpointFile)
		case ev.Type == EventCheckpoint:
			trailer = &ev
			return nil
		}
		frames++
		if err := apply(ev); err != nil {
			return fmt.Errorf("storage: loading %s frame %d: %w", checkpointFile, frames, err)
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	if trailer == nil || trailer.Frames != frames {
		return 0, fmt.Errorf("storage: %s does not end in a trailer counting its %d frames", checkpointFile, frames)
	}
	return trailer.Seq, nil
}

// segmentInfo is one segment's identity: the seq lower bound from its
// name, the highest event seq actually stored (0 for an empty segment),
// and its path.
type segmentInfo struct {
	first uint64
	last  uint64
	path  string
}

// segmentFileName renders the canonical name for a segment whose events
// all have seq >= first.
func segmentFileName(first uint64) string {
	return fmt.Sprintf("%s%0*d%s", segmentPrefix, segmentSeqLen, first, segmentSuffix)
}

// parseSegmentName extracts the seq lower bound from a segment file name,
// or reports that the name is not a segment's.
func parseSegmentName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, segmentPrefix) || !strings.HasSuffix(name, segmentSuffix) {
		return 0, false
	}
	mid := name[len(segmentPrefix) : len(name)-len(segmentSuffix)]
	if len(mid) != segmentSeqLen {
		return 0, false
	}
	n, err := strconv.ParseUint(mid, 10, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// listSegments returns the directory's WAL segments ordered by their seq
// lower bound; last values are zero until replay fills them in.
func listSegments(dir string) ([]segmentInfo, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("storage: listing WAL segments: %w", err)
	}
	var segs []segmentInfo
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		first, ok := parseSegmentName(e.Name())
		if !ok {
			continue
		}
		segs = append(segs, segmentInfo{first: first, path: filepath.Join(dir, e.Name())})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].first < segs[j].first })
	return segs, nil
}

// listRecycled adopts the directory's recycled-segment pool, pruning it
// down to the cap (extras are leftovers from a crash mid-recycle).
func listRecycled(dir string) []string {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil
	}
	var pool []string
	for _, e := range entries {
		name := e.Name()
		if strings.HasPrefix(name, recyclePrefix) && strings.HasSuffix(name, recycleSuffix) {
			pool = append(pool, filepath.Join(dir, name))
		}
	}
	sort.Strings(pool)
	for len(pool) > maxRecycled {
		os.Remove(pool[len(pool)-1])
		pool = pool[:len(pool)-1]
	}
	return pool
}

// refuseEarlierRelease refuses a data directory holding a file an earlier
// release wrote — the JSON snapshot or a JSONL segment, empty or not —
// and names the file.
func refuseEarlierRelease(dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("storage: listing data dir: %w", err)
	}
	for _, e := range entries {
		name := e.Name()
		if name == legacySnapshot || (strings.HasPrefix(name, "wal") && strings.HasSuffix(name, legacySuffix)) {
			return fmt.Errorf("storage: %s is in the format of an earlier release; this release reads only %s and %s*%s",
				filepath.Join(dir, name), checkpointFile, segmentPrefix, segmentSuffix)
		}
	}
	return nil
}
