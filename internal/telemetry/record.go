package telemetry

import (
	"math"
	"math/rand/v2"
	"strconv"
	"time"
	"unsafe"
)

// maxAttrs is how many attributes a span holds inline. Every producer in
// the tree sets at most six (the worker's run span); an attribute past the
// eighth, or with a key over 255 bytes, goes to a map, so none is ever
// dropped.
const maxAttrs = 8

// value is a span ID or an attribute value in two words, held without the
// allocation formatting it would cost: p and n are a string's data and
// length, or p is nil and n is a number, formatted only when the span is
// read.
type value struct {
	p *byte
	n uint64
}

// noBytes backs empty strings, whose data pointer may be nil.
var noBytes byte

func stringValue(s string) value {
	if s == "" {
		return value{p: &noBytes}
	}
	return value{p: unsafe.StringData(s), n: uint64(len(s))}
}

// attr renders an attribute value: numbers in base 10.
func (v value) attr() string {
	if v.p == nil {
		return strconv.FormatUint(v.n, 10)
	}
	return unsafe.String(v.p, v.n)
}

// spanID renders a span ID: numbers are locally minted IDs, 8 hex digits.
func (v value) spanID() string {
	if v.p == nil {
		return hexString(v.n, 8)
	}
	return unsafe.String(v.p, v.n)
}

// attr is one inline attribute: its key's data (the length is in
// record.keyLen) and its value.
type attr struct {
	key *byte
	val value
}

// extra holds what few spans carry, so the rest do not pay for it: an
// error, the process of a span imported from elsewhere, and attributes
// that do not fit inline.
type extra struct {
	process, err string
	more         map[string]string
}

// record is one span by value: what a Span fills in place and what a ring
// slot holds. Its ID and its parent's are values, so a child of a local
// span copies the parent's ID without rendering it. Attributes are packed
// three words each, key lengths apart, to keep it at 296 bytes: a full
// ring then holds no more than the same spans would as heap objects with
// attribute maps (TestSlotSize). SpanData is built from it only for a
// reader.
type record struct {
	trace, op      string
	id, parent     value
	startNS, durNS int64
	extra          *extra
	attrs          [maxAttrs]attr
	keyLen         [maxAttrs]uint8
	nattrs         uint8
	stored         bool // set on a ring slot that holds a span
}

func (r *record) key(i int) string { return unsafe.String(r.attrs[i].key, r.keyLen[i]) }

func (r *record) ext() *extra {
	if r.extra == nil {
		r.extra = new(extra)
	}
	return r.extra
}

func (r *record) err() string {
	if r.extra == nil {
		return ""
	}
	return r.extra.err
}

// process is the process the span was imported from, or "" for one
// recorded here.
func (r *record) process() string {
	if r.extra == nil {
		return ""
	}
	return r.extra.process
}

func (r *record) setAttr(k string, v value) {
	for i := range int(r.nattrs) {
		if r.key(i) == k {
			r.attrs[i].val = v
			return
		}
	}
	if r.nattrs < maxAttrs && len(k) <= math.MaxUint8 {
		r.attrs[r.nattrs] = attr{unsafe.StringData(k), v}
		r.keyLen[r.nattrs] = uint8(len(k))
		r.nattrs++
		return
	}
	x := r.ext()
	if x.more == nil {
		x.more = make(map[string]string)
	}
	x.more[k] = v.attr()
}

// attr returns attribute k's value, or "".
func (r *record) attr(k string) string {
	for i := range int(r.nattrs) {
		if r.key(i) == k {
			return r.attrs[i].val.attr()
		}
	}
	if r.extra == nil {
		return ""
	}
	return r.extra.more[k]
}

// end sets the duration from the start to end, clamped at zero.
func (r *record) end(end time.Time) {
	r.durNS = max(end.UnixNano()-r.startNS, 0)
}

// data builds the serializable form.
func (r *record) data() SpanData {
	d := SpanData{TraceID: r.trace, SpanID: r.id.spanID(), ParentID: r.parent.spanID(), Op: r.op,
		Process: r.process(), StartNS: r.startNS, DurationNS: r.durNS, Err: r.err()}
	var more map[string]string
	if r.extra != nil {
		more = r.extra.more
	}
	if n := int(r.nattrs) + len(more); n > 0 {
		d.Attrs = make(map[string]string, n)
		for i := range int(r.nattrs) {
			d.Attrs[r.key(i)] = r.attrs[i].val.attr()
		}
		for k, v := range more {
			d.Attrs[k] = v
		}
	}
	return d
}

func recordOf(d *SpanData) record {
	r := record{trace: d.TraceID, parent: stringValue(d.ParentID), op: d.Op, id: stringValue(d.SpanID),
		startNS: d.StartNS, durNS: d.DurationNS}
	if d.Process != "" || d.Err != "" {
		r.extra = &extra{process: d.Process, err: d.Err}
	}
	for k, v := range d.Attrs {
		r.setAttr(k, stringValue(v))
	}
	return r
}

// Span is one span, built by value and recorded when it ends: recording
// it allocates nothing. Its ID is minted as a number and rendered (one
// allocation) only by ID, for a child in another process; a child in this
// one opens with Child. End a span exactly once, from one goroutine, and
// leave it alone after. The zero Span has no trace: its ID is "" and
// ending it records nothing.
type Span struct{ rec record }

// SpanAt begins a span under trace, parented to the span whose ID is
// parent ("" for a root), started at start.
func SpanAt(trace, parent, op string, start time.Time) Span {
	return Span{record{trace: trace, parent: stringValue(parent), op: op,
		id: value{n: uint64(rand.Uint32())}, startNS: start.UnixNano()}}
}

// Child begins a span under s, started at start. It reads only s's trace
// and ID, which never change, so it may run while another goroutine ends s.
func (s *Span) Child(op string, start time.Time) Span {
	return Span{record{trace: s.rec.trace, parent: s.rec.id, op: op,
		id: value{n: uint64(rand.Uint32())}, startNS: start.UnixNano()}}
}

// ID renders the span's ID, "" for the zero Span.
func (s *Span) ID() string {
	if s.rec.trace == "" {
		return ""
	}
	return s.rec.id.spanID()
}

// SetAttr attaches a key/value attribute.
func (s *Span) SetAttr(k, v string) { s.rec.setAttr(k, stringValue(v)) }

// SetAttrUint attaches a numeric attribute, formatted in base 10 only when
// the span is read.
func (s *Span) SetAttrUint(k string, v uint64) { s.rec.setAttr(k, value{n: v}) }

// Fail marks the span as errored; a nil error is a no-op.
func (s *Span) Fail(err error) {
	if err != nil {
		s.rec.ext().err = err.Error()
	}
}

// Data builds the span's serializable form: how a worker ships its run,
// once ended, inside its completion report.
func (s *Span) Data() SpanData { return s.rec.data() }

// End records the span, ended now, into the default flight recorder.
func (s *Span) End() { s.EndAt(time.Now()) }

// EndAt records the span, ended at end, into the default flight recorder.
func (s *Span) EndAt(end time.Time) {
	if s.rec.trace == "" {
		return
	}
	s.rec.end(end)
	DefaultRecorder().record(&s.rec)
}
