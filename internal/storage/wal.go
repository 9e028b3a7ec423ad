package storage

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
)

// The write-ahead log turns the shared storage into a real durability
// subsystem: every state mutation of the service (job submitted, example
// fed or refined, model recorded, candidate abandoned) is appended as one
// CRC32C-framed binary record before the mutation is acknowledged, and
// boot-time recovery replays the surviving records on top of the last
// checkpoint. segment.go defines the frame, the CRC order, the torn-tail
// rule, the checkpoint's layout (the same frames, ended by a trailer) and
// what happens to the files of earlier releases.
//
// The log is segmented and group-committed, and the commit is
// self-clocked: no durable write waits on a timer. Appends do not write:
// Enqueue frames its events and checksums their bodies outside the log
// mutex, takes consecutive seqs and enqueues them as one request, returning
// the last seq and a done channel; AppendBatch is Enqueue plus the wait.
// The committer writes each seq into its frame and extends the CRC over
// it. A single committer goroutine commits as soon as it has work and the
// device is free — a batch is whatever arrived during the previous
// fsync — paying one write + one fsync for the whole batch, advancing the
// durable horizon (Durable) and then releasing every waiter at once. So
// an acknowledged mutation is on disk (fsynced, not merely flushed to the
// OS), a lone writer pays one fsync and nothing else, and the per-event
// durability cost shrinks as concurrency (or the caller's batch) grows.
// Records land in fixed-size segment files named by seq; compaction folds
// sealed segments into the checkpoint and recycles their files instead of
// rewriting a single world-file.
//
// Durability lifecycle:
//
//	Enqueue ──────▶ commit queue ──▶ committer: 1 write + 1 fsync per batch
//	(AppendBatch:                   │ advance Durable, then release all
//	 + wait on done)                │ waiters, then count the telemetry
//	                                ▼
//	                    wal-<firstseq>.wal (active)
//	                                │ roll at SegmentBytes: flush+fsync+seal
//	                                ▼
//	                       sealed segments (read-only)
//	                                │
//	     Compact ───────────────────┘ snapshot.wal ⟵ full state @ horizon as
//	     (admin / shutdown)           frames + trailer; every covered
//	                                  segment recycled
//
//	Open(dir, apply) ──▶ snapshot.wal's frames streamed to apply (any
//	                     damage is an error), then the segments' frames
//	                     above the horizon, in seq order; a torn tail is
//	                     truncated in the last segment only, any other
//	                     damage is an error
//
// A failed write, flush, fsync or roll poisons the log (see Log.Err).
//
// Replay is seq-filtered, and its consumer idempotent: an event surviving
// in two segments after an interrupted compaction applies once, and one
// already reflected in the checkpoint changes nothing. The "checkpoint
// state vs. log tail" boundary therefore never has to be exact, which is
// what lets Compact capture live state under a horizon read before the
// capture.

// EventType labels one WAL record.
type EventType string

// The WAL event vocabulary. Lease grants are deliberately not logged: a
// lease that never completes leaves its arm untried in the recovered state,
// so the work is re-queued (re-leased) by the first scheduling pass of the
// next process instead of being lost or double-counted. Lease *expiries*
// are logged, though — they are operational history (which worker went
// silent on which candidate), not state the re-queue depends on, so
// compaction folds them away rather than into the checkpoint.
const (
	EventJobSubmitted       EventType = "job_submitted"
	EventExampleFed         EventType = "example_fed"
	EventExampleRefined     EventType = "example_refined"
	EventModelRecorded      EventType = "model_recorded"
	EventCandidateAbandoned EventType = "candidate_abandoned"
	EventLeaseExpired       EventType = "lease_expired"
	// EventLeasePreempted records a lease reclaimed to make room for
	// higher-priority work. Like expiries it is operational history, not
	// state: the candidate is simply untried in the recovered state and
	// re-enters selection, so compaction folds it away.
	EventLeasePreempted EventType = "lease_preempted"
	// EventBudgetExhausted records a job drained because its tenant's GPU
	// cost budget ran out. Unlike lease events this IS state recovery
	// depends on: the job's remaining candidates were retired, and a
	// recovered process must agree instead of resuming training. Compaction
	// folds it into the checkpoint.
	EventBudgetExhausted EventType = "budget_exhausted"
	// EventCheckpoint is the trailer of the checkpoint file (segment.go).
	// It never belongs in a segment, and replay refuses it there.
	EventCheckpoint EventType = "checkpoint"
)

// Event is one WAL record. Seq is assigned by Enqueue and is strictly
// increasing across the life of a log directory (compaction records the
// high-water mark in the checkpoint, so replay can skip events the
// checkpoint already covers).
type Event struct {
	Seq  uint64    `json:"seq"`
	Type EventType `json:"type"`
	Job  string    `json:"job,omitempty"`

	// job_submitted
	Name    string `json:"name,omitempty"`
	Program string `json:"program,omitempty"`

	// example_fed / example_refined
	Example int       `json:"example,omitempty"`
	Input   []float64 `json:"input,omitempty"`
	Output  []float64 `json:"output,omitempty"`
	Enabled bool      `json:"enabled,omitempty"`

	// model_recorded
	Model *ModelRecord `json:"model,omitempty"`
	// UCB is the upper confidence bound the model's arm was leased at —
	// the GP-BUCB hallucinated one when other arms of the job were in
	// flight — which the scheduler's σ̃ recurrence replays. Required:
	// replay refuses a model_recorded without it.
	UCB *float64 `json:"ucb,omitempty"`

	// candidate_abandoned / lease_expired / lease_preempted
	Candidate string `json:"candidate,omitempty"`

	// lease_expired / lease_preempted: the fleet worker holding the lease
	// (empty for an unassigned lease).
	Worker string `json:"worker,omitempty"`

	// lease_preempted: the job whose higher-priority work demanded the
	// capacity.
	By string `json:"by,omitempty"`

	// budget_exhausted: the tenant whose budget ran out and the cumulative
	// cost at the moment of exhaustion.
	Tenant string  `json:"tenant,omitempty"`
	Cost   float64 `json:"cost,omitempty"`

	// checkpoint: the number of frames before the trailer.
	Frames int `json:"frames,omitempty"`
}

// JobMeta is the durable identity of a submitted job: everything needed to
// rebuild its candidate surface on recovery (the program is re-parsed and
// re-matched, which reproduces the same candidates deterministically).
type JobMeta struct {
	ID      string `json:"id"`
	Name    string `json:"name"`
	Program string `json:"program"`
}

// RecoveredState is what OpenDirOptions folds a data directory into: the
// job registry in submission order and the shared store (examples, refine
// state, model records).
//
// Deprecated: the scheduler recovers by streaming the events through Open
// into its own apply; nothing is materialised. RecoveredState stays only
// for the frozen benchmark harness (bench/micro.go, through
// OpenDirOptions), until the benchmark refresh (ROADMAP item 1(b)).
type RecoveredState struct {
	Jobs   []JobMeta
	Store  *Store
	Events int // WAL tail events applied on top of the checkpoint
}

// DefaultSegmentBytes is the segment roll threshold when LogOptions does
// not set one: large enough that single-process tests stay in one segment,
// small enough that a covered segment's file is cheap to recycle.
const DefaultSegmentBytes = 4 << 20

// batchGatherWindow bounds the committer's cohort-gather yield loop: how
// long a fresh batch waits for the waiters woken by the previous fsync to
// re-enqueue and join it.
// Kept well under a device fsync (~hundreds of µs) so the worst-case
// added ack latency is a rounding error.
const batchGatherWindow = 25 * time.Microsecond

// LogOptions tunes the WAL's segmenting. The zero value is the library
// default: 4 MiB segments.
type LogOptions struct {
	// SegmentBytes is the roll threshold: a batch record that would push
	// the active segment past it seals the segment (flush+fsync+close) and
	// opens the next. <= 0 means DefaultSegmentBytes. A single record
	// larger than the threshold still lands in one segment.
	SegmentBytes int64

	// SyncInterval is accepted and ignored.
	//
	// Deprecated: the log has one commit discipline — the committer fsyncs
	// each batch as soon as it has work, and a batch is whatever arrived
	// during the previous fsync. The linger (> 0) and the inline
	// fsync-per-append mode (< 0) this field used to select are gone; it
	// remains only so existing callers keep compiling.
	SyncInterval time.Duration
}

// WAL telemetry: append latency spans enqueue → fsync (the durability an
// acknowledged mutation buys), observed by the committer for every
// request, waited on or not; fsync latency covers group commits, segment
// seals, compactions and close.
var (
	walAppendLatency = telemetry.Default().Histogram("easeml_wal_append_seconds",
		"WAL append latency: from enqueue to fsynced acknowledgement.")
	walAppends = telemetry.Default().CounterVec("easeml_wal_appends_total",
		"WAL events appended, by event type.", "type")
	walFsyncLatency = telemetry.Default().Histogram("easeml_wal_fsync_seconds",
		"WAL fsync latency (group commits, segment seals, snapshots, close).")
	walFsyncs = telemetry.Default().Counter("easeml_wal_fsyncs_total",
		"File fsyncs issued by the WAL (group commit, seal, snapshot, close).")
	walCompactions = telemetry.Default().Counter("easeml_wal_compactions_total",
		"Snapshot compactions completed.")
	walBatchSize = telemetry.Default().ValueHistogram("easeml_wal_group_commit_batch_size",
		"Appends committed per WAL group-commit batch (per fsync).")
	walSegments = telemetry.Default().Gauge("easeml_wal_segments",
		"Live WAL segment files (sealed + active).")
	walBytesWritten = telemetry.Default().Counter("easeml_wal_bytes_written_total",
		"Bytes of encoded events written to WAL segments.")
)

// opWALGroupCommit is the span each WAL group-commit batch records (under
// its own trace — one fsync serves many request traces).
var opWALGroupCommit = telemetry.SpanOp("wal_group_commit")

// commitReq is one Enqueue call waiting in the commit queue: its records
// take consecutive seqs from first. One without events is a barrier.
type commitReq struct {
	first  uint64
	events []Event // read for their types once the commit is released
	frames []byte  // the records back to back, seq and CRC not yet sealed
	t0     time.Time
	done   chan error
}

// Log is a segmented, group-committed write-ahead log of CRC-framed
// records over a data directory. AppendBatch blocks until its events are
// fsynced (batched with their neighbours), so an acknowledged mutation
// survives power failure, not just process crash; Enqueue returns at once,
// and Durable says how far the fsyncs have reached.
//
// Locking: mu guards sequencing and the commit queue (Enqueue holds it
// only to take seqs and enqueue — never while encoding or during I/O);
// ioMu guards the segment files and is held for writes, fsyncs, rolls and
// compaction. Neither is taken while holding the other.
type Log struct {
	dir  string
	opts LogOptions

	mu     sync.Mutex
	qcond  *sync.Cond // signalled when queue gains work or closed flips
	queue  []*commitReq
	seq    uint64
	closed bool
	done   chan struct{} // committer exited

	ioMu        sync.Mutex
	f           *os.File // active segment
	w           *bufio.Writer
	size        int64  // bytes in the active segment
	first       uint64 // active segment's name seq (lower bound)
	lastWritten uint64 // highest seq written to any segment
	sealed      []segmentInfo
	recycled    []string // pool of truncated retired segment files
	// durable is the highest seq known fsynced: the committer advances it
	// after each successful group commit, before releasing the batch. It
	// never passes a failed fsync, so a poisoned log's horizon freezes.
	durable atomic.Uint64
	// fsync syncs a segment or checkpoint file; (*os.File).Sync outside
	// tests, which swap it to inject a failing device.
	fsync func(*os.File) error

	// failed holds the first write, flush, fsync or roll error. Once it is
	// set the log is poisoned: a failed fsync may already have dropped the
	// batch's pages, so a later fsync succeeding proves nothing about them,
	// and every later Enqueue and Compact returns this error without
	// touching the files.
	failed atomic.Pointer[error]

	// Per-log operation tallies, read by Stats; the process-global
	// Prometheus counters above aggregate across logs.
	appends      atomic.Uint64
	fsyncs       atomic.Uint64
	compactions  atomic.Uint64
	groupCommits atomic.Uint64
	bytesWritten atomic.Uint64
}

// LogStats is one log's operation tallies plus its sequence horizon. The
// scrape serves the horizon as easeml_wal_seq; benchmarks and tests read
// the per-log tallies, which the process-wide easeml_wal_* families sum.
type LogStats struct {
	Appends      uint64 `json:"appends"`
	Fsyncs       uint64 `json:"fsyncs"`
	Compactions  uint64 `json:"compactions"`
	Seq          uint64 `json:"seq"`
	Segments     int    `json:"segments"`
	GroupCommits uint64 `json:"group_commits"`
	BytesWritten uint64 `json:"bytes_written"`
}

// Stats snapshots the log's operation tallies and sequence horizon.
func (l *Log) Stats() LogStats {
	l.mu.Lock()
	seq := l.seq
	l.mu.Unlock()
	l.ioMu.Lock()
	segs := len(l.sealed)
	if l.f != nil {
		segs++
	}
	l.ioMu.Unlock()
	return LogStats{
		Appends:      l.appends.Load(),
		Fsyncs:       l.fsyncs.Load(),
		Compactions:  l.compactions.Load(),
		Seq:          seq,
		Segments:     segs,
		GroupCommits: l.groupCommits.Load(),
		BytesWritten: l.bytesWritten.Load(),
	}
}

// Err reports the I/O failure that poisoned the log, or nil while it is
// healthy. A poisoned log acknowledges nothing further; the process should
// be restarted, and recovery then replays what reached the disk.
func (l *Log) Err() error {
	if p := l.failed.Load(); p != nil {
		return *p
	}
	return nil
}

// poison records err as the log's failure unless an earlier one is already
// stored, and returns err.
func (l *Log) poison(err error) error {
	l.failed.CompareAndSwap(nil, &err)
	return err
}

// timedSync fsyncs f under the WAL's fsync telemetry.
func (l *Log) timedSync(f *os.File) error {
	t0 := time.Now()
	err := l.fsync(f)
	walFsyncLatency.ObserveSince(t0)
	walFsyncs.Inc()
	l.fsyncs.Add(1)
	return err
}

// Tail counts the WAL tail events Open applied on top of the checkpoint,
// by type. The checkpoint's own frames are not counted.
type Tail map[EventType]int

// Events returns how many tail events were applied.
func (t Tail) Events() int {
	n := 0
	for _, c := range t {
		n += c
	}
	return n
}

// Open opens (creating if needed) a data directory and streams its events
// to apply, in seq order and nothing materialised: the checkpoint's
// frames, then the segments' frames above the horizon. A torn tail — the
// signature of a crash mid-commit — is truncated away in the last
// segment; damage anywhere else, the checkpoint included, is an error
// naming the file and byte offset, and so is any file of an earlier
// release (segment.go). An error from apply stops the stream and is
// returned wrapped with the event's file and seq; the caller discards
// what apply built. apply must be idempotent: Compact captures live state
// under a horizon read before the capture, so an event just above it may
// already be in the checkpoint. The returned Log appends to the last
// segment.
func Open(dir string, opts LogOptions, apply func(Event) error) (*Log, Tail, error) {
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = DefaultSegmentBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("storage: creating data dir: %w", err)
	}
	if err := refuseEarlierRelease(dir); err != nil {
		return nil, nil, err
	}

	var lastSeq uint64
	if data, err := os.ReadFile(filepath.Join(dir, checkpointFile)); err == nil {
		if lastSeq, err = applyCheckpoint(data, apply); err != nil {
			return nil, nil, err
		}
	} else if !os.IsNotExist(err) {
		return nil, nil, fmt.Errorf("storage: reading checkpoint: %w", err)
	}

	segs, err := listSegments(dir)
	if err != nil {
		return nil, nil, err
	}

	tail := make(Tail)
	counted := func(ev Event) error {
		if err := apply(ev); err != nil {
			return err
		}
		tail[ev.Type]++
		return nil
	}
	// horizon is the monotonic replay filter: events at or below it are
	// already reflected (checkpoint, or an earlier copy in a previous
	// segment) and skip. It is what makes replay idempotent when the same
	// event survives in two segments after an interrupted compaction.
	horizon := lastSeq
	maxSeq := lastSeq
	for i := range segs {
		segMax, rerr := replaySegment(segs[i].path, &horizon, counted, i == len(segs)-1)
		if rerr != nil {
			return nil, nil, rerr
		}
		segs[i].last = segMax
		if segMax > maxSeq {
			maxSeq = segMax
		}
	}

	l := &Log{dir: dir, opts: opts, seq: maxSeq, lastWritten: maxSeq, fsync: (*os.File).Sync}
	l.durable.Store(maxSeq)
	l.qcond = sync.NewCond(&l.mu)
	l.recycled = listRecycled(dir)
	if len(segs) == 0 {
		if err := l.openSegmentLocked(maxSeq + 1); err != nil {
			return nil, nil, err
		}
	} else {
		active := segs[len(segs)-1]
		f, ferr := os.OpenFile(active.path, os.O_WRONLY|os.O_APPEND, 0o644)
		if ferr != nil {
			return nil, nil, fmt.Errorf("storage: opening WAL segment for append: %w", ferr)
		}
		st, serr := f.Stat()
		if serr != nil {
			f.Close()
			return nil, nil, fmt.Errorf("storage: sizing WAL segment: %w", serr)
		}
		l.f, l.w, l.size, l.first = f, bufio.NewWriter(f), st.Size(), active.first
		l.sealed = segs[:len(segs)-1]
	}
	walSegments.Set(float64(len(l.sealed) + 1))
	l.done = make(chan struct{})
	go l.committer()
	return l, tail, nil
}

// replaySegment passes a segment's events with Seq > *horizon to apply,
// advancing the horizon past each applied event. Only the last segment
// may carry a torn tail (it is truncated away); any damage in a sealed
// segment is corruption and an error, and so is a checkpoint trailer. It
// returns the highest sequence number seen in the segment (0 if empty).
func replaySegment(path string, horizon *uint64, apply func(Event) error, last bool) (uint64, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("storage: reading WAL segment: %w", err)
	}
	name := filepath.Base(path)
	var maxSeq uint64
	end, err := scanFrames(name, data, last, func(ev Event) error {
		maxSeq = max(maxSeq, ev.Seq)
		if ev.Seq <= *horizon {
			return nil
		}
		if ev.Type == EventCheckpoint {
			return fmt.Errorf("storage: %s holds a checkpoint trailer at seq %d", name, ev.Seq)
		}
		if err := apply(ev); err != nil {
			return fmt.Errorf("storage: replaying WAL seq %d in %s: %w", ev.Seq, name, err)
		}
		*horizon = ev.Seq
		return nil
	})
	if err != nil {
		return 0, err
	}
	if end < len(data) {
		if err := os.Truncate(path, int64(end)); err != nil {
			return 0, fmt.Errorf("storage: truncating torn WAL tail: %w", err)
		}
	}
	return maxSeq, nil
}

// OpenDirOptions opens a data directory through Open and folds every
// event into a RecoveredState.
//
// Deprecated: use Open, which streams the events instead of
// materialising them. OpenDirOptions stays only for the frozen benchmark
// harness (bench/micro.go), until the benchmark refresh (ROADMAP item
// 1(b)) moves it to Open.
func OpenDirOptions(dir string, opts LogOptions) (*Log, *RecoveredState, error) {
	rec := &RecoveredState{Store: NewStore()}
	l, tail, err := Open(dir, opts, rec.apply)
	if err != nil {
		return nil, nil, err
	}
	rec.Events = tail.Events()
	return l, rec, nil
}

// apply folds one event into the job registry and the store; the other
// event types leave both alone. Every case is idempotent.
func (rec *RecoveredState) apply(ev Event) error {
	if ev.Type == EventJobSubmitted && !slices.ContainsFunc(rec.Jobs, func(m JobMeta) bool { return m.ID == ev.Job }) {
		rec.Jobs = append(rec.Jobs, JobMeta{ID: ev.Job, Name: ev.Name, Program: ev.Program})
	}
	ts, err := taskFor(rec.Store, ev.Job)
	if err != nil {
		return err
	}
	switch ev.Type {
	case EventExampleFed:
		ts.PutExample(Example{ID: ev.Example, Input: ev.Input, Output: ev.Output, Enabled: true})
	case EventExampleRefined:
		return ts.Refine(ev.Example, ev.Enabled)
	case EventModelRecorded:
		if !ts.HasModel(ev.Model.Name) {
			ts.RecordModel(*ev.Model, *ev.UCB)
		}
	}
	return nil
}

// taskFor resolves (creating if necessary) the task store for a job id.
// Creation covers replay of a log whose job_submitted event predates the
// checkpoint's sequence horizon but whose task was never checkpointed.
func taskFor(s *Store, id string) (*TaskStore, error) {
	if ts, ok := s.Task(id); ok {
		return ts, nil
	}
	return s.CreateTask(id)
}

// Enqueue queues events as one commit request without waiting: it encodes
// them, assigns them consecutive sequence numbers and returns the last one
// with a channel that receives the commit's result once all of them are
// fsynced (nil) or the commit failed. Requests that overlap in time share
// one fsync and commit in Enqueue order, so a seq is durable once Durable
// reaches it. The log keeps events (the committer counts their types after
// the release): the caller must not modify them afterwards. Without events
// it is a barrier: it takes no seq, returns the current one, and done
// fires once everything enqueued before it is durable. A poisoned log (see
// Err) fails every Enqueue.
func (l *Log) Enqueue(events []Event) (uint64, <-chan error, error) {
	if err := l.Err(); err != nil {
		return 0, nil, err
	}
	req := &commitReq{events: events, t0: time.Now(), done: make(chan error, 1)}
	size := 0
	for _, ev := range events {
		size += frameHeader + 64 + len(ev.Job) + 8*(len(ev.Input)+len(ev.Output))
	}
	req.frames = make([]byte, 0, size)
	for _, ev := range events {
		var err error
		if req.frames, err = appendFrame(req.frames, ev); err != nil {
			return 0, nil, err
		}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, nil, fmt.Errorf("storage: append to closed WAL")
	}
	req.first = l.seq + 1
	l.seq += uint64(len(events))
	l.queue = append(l.queue, req)
	l.qcond.Signal()
	return l.seq, req.done, nil
}

// Durable returns the durable horizon: every event with a seq at or below
// it is fsynced. It only grows, and it never passes a failed fsync.
func (l *Log) Durable() uint64 { return l.durable.Load() }

// AppendBatch is Enqueue plus the wait: it returns the first seq of the
// events once all of them are fsynced, or the commit's error. An empty
// batch is a no-op.
func (l *Log) AppendBatch(events []Event) (uint64, error) {
	if len(events) == 0 {
		return 0, nil
	}
	last, done, err := l.Enqueue(events)
	if err != nil {
		return 0, err
	}
	return last - uint64(len(events)) + 1, <-done
}

// Append is AppendBatch for one event.
func (l *Log) Append(ev Event) error {
	_, err := l.AppendBatch([]Event{ev})
	return err
}

// committer is the single goroutine that drains the commit queue, as soon
// as it has work and the device is free. Each drain becomes one batch: one
// buffered write per record, one flush, one fsync, then every waiter in
// the batch is released with the same result. A batch is whatever arrived
// during the previous fsync, which is what converts N concurrent appends
// into ~1 fsync without making a lone append wait for company.
func (l *Log) committer() {
	defer close(l.done)
	for {
		l.mu.Lock()
		for len(l.queue) == 0 && !l.closed {
			l.qcond.Wait()
		}
		if len(l.queue) == 0 && l.closed {
			l.mu.Unlock()
			return
		}
		batch := l.queue
		l.queue = nil
		l.mu.Unlock()
		// Cohort gather: waiters released by the previous batch re-enqueue
		// within microseconds of waking, but a plain drain runs before they
		// get there, splitting a concurrent cohort into a 1-then-rest
		// alternation that pays two fsyncs where one would do. A bounded
		// yield loop (not a timer: time.Sleep can't do microseconds) lets
		// the cohort assemble; the window is noise next to the fsync this
		// batch is about to pay.
		deadline := time.Now().Add(batchGatherWindow)
		for {
			runtime.Gosched()
			l.mu.Lock()
			batch = append(batch, l.queue...)
			l.queue = nil
			l.mu.Unlock()
			if time.Now().After(deadline) {
				break
			}
		}
		err := l.commitBatch(batch)
		if err == nil {
			l.durable.Store(l.lastWritten)
		}
		for _, r := range batch {
			r.done <- err
		}
		appendTelemetry(batch, err)
	}
}

// appendTelemetry counts a released batch's events and observes each
// request's enqueue-to-fsync latency. The committer runs it after the
// release, so no waiter pays for it.
func appendTelemetry(batch []*commitReq, err error) {
	now := time.Now()
	for _, r := range batch {
		if len(r.events) == 0 {
			continue // a barrier appends nothing
		}
		if err == nil {
			for _, ev := range r.events {
				walAppends.With(string(ev.Type)).Inc()
			}
		}
		elapsed := now.Sub(r.t0)
		walAppendLatency.Observe(elapsed)
		// Guarded at the call: SlowOp's arguments would box on every append.
		if t := telemetry.SlowOpThreshold(); t > 0 && elapsed >= t {
			telemetry.SlowOp("wal_append", elapsed, "type", string(r.events[0].Type), "seq", r.first, "events", len(r.events))
		}
	}
}

// commitBatch writes a batch of encoded records to the active segment
// (rolling at the size threshold) and fsyncs once. Callers must not hold
// ioMu.
func (l *Log) commitBatch(batch []*commitReq) error {
	if !slices.ContainsFunc(batch, func(r *commitReq) bool { return len(r.events) > 0 }) {
		// Barriers only: every request ahead of them committed in an
		// earlier batch, or that batch's failure poisoned the log.
		return l.Err()
	}
	// Group commits belong to no single request trace (one fsync serves
	// many), so each batch records a root span under its own trace: the
	// flight-recorder view of the WAL's write pipeline.
	span := telemetry.SpanAt(telemetry.NewTraceID(), "", opWALGroupCommit, time.Now())
	l.ioMu.Lock()
	defer l.ioMu.Unlock()
	err := l.Err()
	if err == nil && l.f == nil {
		err = fmt.Errorf("storage: append to closed WAL")
	}
	if err != nil {
		span.Fail(err)
		span.End()
		return err
	}
	records, n, err := l.commitBatchLocked(batch)
	if err != nil {
		span.Fail(err)
	} else {
		span.SetAttrUint("records", uint64(records))
		span.SetAttrUint("bytes", uint64(n))
		span.SetAttrUint("first_seq", batch[0].first)
		span.SetAttrUint("last_seq", l.lastWritten)
	}
	span.End()
	return err
}

// commitBatchLocked is commitBatch's write+flush+fsync body; callers hold
// ioMu. It seals each record's frame with its seq, writes a request's
// frames in one run per segment, and reports the records and bytes
// written. Any failure poisons the log.
func (l *Log) commitBatchLocked(batch []*commitReq) (records, n int, err error) {
	for _, r := range batch {
		seq, run := r.first, 0 // run: start of the frames not yet written
		for off := 0; off < len(r.frames); seq++ {
			size := sealFrame(r.frames[off:], seq)
			if l.size+int64(off-run) > 0 && l.size+int64(off-run+size) > l.opts.SegmentBytes {
				if err := l.writeLocked(r.frames[run:off]); err != nil {
					return 0, 0, err
				}
				if err := l.rollLocked(seq); err != nil {
					return 0, 0, l.poison(err)
				}
				run = off
			}
			off += size
			l.lastWritten = seq
			records++
		}
		if err := l.writeLocked(r.frames[run:]); err != nil {
			return 0, 0, err
		}
		n += len(r.frames)
	}
	if err := l.w.Flush(); err != nil {
		return 0, 0, l.poison(fmt.Errorf("storage: flushing WAL: %w", err))
	}
	// The fsync precedes every waiter's release: acknowledgement means
	// "on disk", not "handed to the OS".
	if err := l.timedSync(l.f); err != nil {
		return 0, 0, l.poison(fmt.Errorf("storage: syncing WAL: %w", err))
	}
	l.groupCommits.Add(1)
	l.appends.Add(uint64(records))
	l.bytesWritten.Add(uint64(n))
	walBatchSize.Observe(uint64(records))
	walBytesWritten.Add(uint64(n))
	return records, n, nil
}

// writeLocked hands sealed frames to the active segment's buffer. Callers
// hold ioMu; a failure poisons the log.
func (l *Log) writeLocked(frames []byte) error {
	if _, err := l.w.Write(frames); err != nil {
		return l.poison(fmt.Errorf("storage: appending WAL records: %w", err))
	}
	l.size += int64(len(frames))
	return nil
}

// rollLocked seals the active segment (flush, fsync, close, record its
// seq range) and opens the next one, named by the first seq it will
// hold. Callers hold ioMu.
func (l *Log) rollLocked(nextFirst uint64) error {
	if err := l.w.Flush(); err != nil {
		return fmt.Errorf("storage: flushing WAL segment before seal: %w", err)
	}
	if err := l.timedSync(l.f); err != nil {
		return fmt.Errorf("storage: syncing WAL segment before seal: %w", err)
	}
	err := l.f.Close()
	l.f = nil
	if err != nil {
		return fmt.Errorf("storage: sealing WAL segment: %w", err)
	}
	l.sealed = append(l.sealed, segmentInfo{
		first: l.first,
		last:  l.lastWritten,
		path:  filepath.Join(l.dir, segmentFileName(l.first)),
	})
	return l.openSegmentLocked(nextFirst)
}

// openSegmentLocked makes wal-<first>.wal the active segment,
// preferring to rename a recycled file back into service over creating a
// new one, and makes its directory entry durable. Callers hold ioMu.
func (l *Log) openSegmentLocked(first uint64) error {
	path := filepath.Join(l.dir, segmentFileName(first))
	if n := len(l.recycled); n > 0 {
		if err := os.Rename(l.recycled[n-1], path); err == nil {
			l.recycled = l.recycled[:n-1]
		}
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("storage: opening WAL segment: %w", err)
	}
	l.f = f
	if l.w == nil {
		l.w = bufio.NewWriter(f)
	} else {
		l.w.Reset(f)
	}
	l.size = 0
	l.first = first
	walSegments.Set(float64(len(l.sealed) + 1))
	return syncDir(l.dir)
}

// recycleLocked retires a segment file into the reuse pool (truncated to
// zero so stale events can never resurface under a new name), unlinking
// it instead once the pool is full. Callers hold ioMu.
func (l *Log) recycleLocked(path string) {
	if len(l.recycled) >= maxRecycled {
		os.Remove(path)
		return
	}
	if err := os.Truncate(path, 0); err != nil {
		os.Remove(path)
		return
	}
	base := filepath.Base(path)
	base = base[len(segmentPrefix) : len(base)-len(segmentSuffix)]
	target := filepath.Join(l.dir, recyclePrefix+base+recycleSuffix)
	if err := os.Rename(path, target); err != nil {
		os.Remove(path)
		return
	}
	l.recycled = append(l.recycled, target)
}

// Seq returns the sequence number of the last appended event.
func (l *Log) Seq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seq
}

// Compact writes the given state as the directory's checkpoint
// (snapshot.wal, see segment.go) and recycles every segment it covers.
// Only the listed jobs' tasks are written from the store.
// through is the caller's sequence horizon — the log's Seq() read
// *before* the caller captured the state it passes here — so an event
// appended while the state was being captured (and thus possibly missing
// from it) survives in a segment and is replayed on recovery; segments
// the capture provably covers are recycled. Replay idempotency absorbs
// the overlap. The checkpoint is written to a temp file, fsynced and
// renamed over the old one, so a crash mid-compaction leaves either the
// old or the new checkpoint intact — never a torn one.
func (l *Log) Compact(jobs []JobMeta, abandoned map[string][]string, budgetExhausted []string, store *Store, through uint64) error {
	if s := l.Seq(); through > s {
		through = s
	}
	l.ioMu.Lock()
	defer l.ioMu.Unlock()
	if err := l.Err(); err != nil {
		return err
	}
	if l.f == nil {
		return fmt.Errorf("storage: compact on closed WAL")
	}
	if err := l.writeCheckpointLocked(jobs, abandoned, budgetExhausted, store, through); err != nil {
		return err
	}
	kept := l.sealed[:0]
	for _, s := range l.sealed {
		if s.last <= through { // an empty segment (last == 0) is trivially covered
			l.recycleLocked(s.path)
		} else {
			kept = append(kept, s)
		}
	}
	l.sealed = kept
	if l.size > 0 && l.lastWritten <= through {
		// The active segment is fully covered too: retire it so a
		// fully-compacted log occupies one empty segment.
		if err := l.w.Flush(); err != nil {
			return l.poison(fmt.Errorf("storage: flushing WAL before compaction: %w", err))
		}
		err := l.f.Close()
		l.f = nil
		if err != nil {
			return l.poison(fmt.Errorf("storage: closing covered WAL segment: %w", err))
		}
		l.recycleLocked(filepath.Join(l.dir, segmentFileName(l.first)))
		if err := l.openSegmentLocked(l.lastWritten + 1); err != nil {
			return l.poison(err)
		}
	}
	walSegments.Set(float64(len(l.sealed) + 1))
	walCompactions.Inc()
	l.compactions.Add(1)
	return syncDir(l.dir)
}

// writeCheckpointLocked writes state as the directory's checkpoint with
// the given seq horizon, via temp file + fsync + rename + dir sync.
// Callers hold ioMu.
func (l *Log) writeCheckpointLocked(jobs []JobMeta, abandoned map[string][]string, budgetExhausted []string, store *Store, through uint64) error {
	tmp := filepath.Join(l.dir, checkpointFile+".tmp")
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("storage: creating checkpoint: %w", err)
	}
	if err := writeCheckpoint(f, jobs, abandoned, budgetExhausted, store, through); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := l.timedSync(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("storage: syncing checkpoint: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("storage: closing checkpoint: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(l.dir, checkpointFile)); err != nil {
		return fmt.Errorf("storage: installing checkpoint: %w", err)
	}
	return syncDir(l.dir)
}

// syncDir fsyncs a directory so a just-renamed file's directory entry is
// durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("storage: opening data dir for sync: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("storage: syncing data dir: %w", err)
	}
	return nil
}

// Close drains the commit queue, then flushes and fsyncs the active
// segment. Further appends fail. A poisoned log is closed without another
// write or fsync, and Close returns the error that poisoned it.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	l.qcond.Broadcast()
	l.mu.Unlock()
	<-l.done // committer commits every queued append before exiting
	l.ioMu.Lock()
	defer l.ioMu.Unlock()
	if err := l.Err(); err != nil {
		if l.f != nil {
			l.f.Close() // the stored failure is the error to report
			l.f = nil
		}
		return err
	}
	if l.f == nil {
		return nil
	}
	flushErr := l.w.Flush()
	syncErr := l.timedSync(l.f)
	closeErr := l.f.Close()
	l.f = nil
	if flushErr != nil {
		return fmt.Errorf("storage: flushing WAL on close: %w", flushErr)
	}
	if syncErr != nil {
		return fmt.Errorf("storage: syncing WAL on close: %w", syncErr)
	}
	if closeErr != nil {
		return fmt.Errorf("storage: closing WAL: %w", closeErr)
	}
	return nil
}

// AppendJobSubmitted logs a job submission (id, user-facing name and the
// normalized program source the candidate surface is rebuilt from).
func (l *Log) AppendJobSubmitted(jobID, name, program string) error {
	return l.Append(Event{Type: EventJobSubmitted, Job: jobID, Name: name, Program: program})
}

// AppendExampleFed logs a fed supervision example under its assigned id.
func (l *Log) AppendExampleFed(jobID string, exampleID int, input, output []float64) error {
	return l.Append(Event{Type: EventExampleFed, Job: jobID, Example: exampleID, Input: input, Output: output})
}
