package telemetry

import (
	"fmt"
	"maps"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"
)

// raceSpan is writer w's i-th span: every field derives from (w, i), so a
// reader can tell a span written whole from one torn between two writes.
// Every seventh span errors, flagging its trace and sweeping the main ring.
func raceSpan(w, i int) SpanData {
	sd := SpanData{
		TraceID:  fmt.Sprintf("%016x", w*1000+i/10),
		SpanID:   fmt.Sprintf("w%d-%d", w, i),
		ParentID: fmt.Sprintf("p%d-%d", w, i),
		Op:       "span_test_w" + strconv.Itoa(w),
		StartNS:  int64(w*1_000_000 + i), DurationNS: int64(i),
		Attrs: map[string]string{"w": strconv.Itoa(w), "i": strconv.Itoa(i)},
	}
	if i%7 == 0 {
		sd.Err = "boom " + sd.SpanID
	}
	return sd
}

func raceDecision(w, i int) (DecisionRecord, []ArmScore) {
	return DecisionRecord{Kind: "pick", Job: "w" + strconv.Itoa(w), Arm: i, UCB: float64(w),
			Trace: fmt.Sprintf("%016x", w*1000+i/10)},
		[]ArmScore{{Arm: i, UCB: float64(w)}, {Arm: i + 1, UCB: float64(w)}}
}

// Eight writers race readers (Traces, Trace, List) and first-flag sweeps
// over a 4-slot recorder and a 4-slot decision ring, wrapping both many
// times: every span and decision read back is one a writer wrote whole.
func TestValueRingsRaceAndWrap(t *testing.T) {
	r := NewRecorder(4)
	dr := &DecisionRing{buf: make([]decisionSlot, 4)}
	const writers, each = 8, 400

	checkSpan := func(sd SpanData) {
		var w, i int
		if _, err := fmt.Sscanf(sd.SpanID, "w%d-%d", &w, &i); err != nil {
			t.Errorf("span ID %q not written by any writer", sd.SpanID)
			return
		}
		want := raceSpan(w, i)
		if sd.TraceID != want.TraceID || sd.ParentID != want.ParentID || sd.Op != want.Op ||
			sd.Err != want.Err || sd.StartNS != want.StartNS || sd.DurationNS != want.DurationNS ||
			!maps.Equal(sd.Attrs, want.Attrs) {
			t.Errorf("torn span:\n got %+v\nwant %+v", sd, want)
		}
	}
	checkDecisions := func(ds []DecisionRecord) {
		for k, d := range ds {
			if k > 0 && d.Seq >= ds[k-1].Seq {
				t.Errorf("listing not newest-first: seq %d after %d", d.Seq, ds[k-1].Seq)
			}
			w, err := strconv.Atoi(strings.TrimPrefix(d.Job, "w"))
			if err != nil {
				t.Errorf("decision job %q not written by any writer", d.Job)
				continue
			}
			want, top := raceDecision(w, d.Arm)
			want.Seq, want.TimeNS, want.TopUCB = d.Seq, d.TimeNS, top
			if d.Trace != want.Trace || d.UCB != want.UCB || len(d.TopUCB) != 2 ||
				d.TopUCB[0] != top[0] || d.TopUCB[1] != top[1] {
				t.Errorf("torn decision:\n got %+v\nwant %+v", d, want)
			}
		}
	}

	var writing, reading sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 2; g++ {
		reading.Add(1)
		go func() {
			defer reading.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, sum := range r.Traces(TraceFilter{}) {
					spans, _ := r.Trace(sum.TraceID)
					for _, sd := range spans {
						checkSpan(sd)
					}
				}
				checkDecisions(dr.List(DecisionFilter{}))
			}
		}()
	}
	for w := 0; w < writers; w++ {
		writing.Add(1)
		go func() {
			defer writing.Done()
			for i := 0; i < each; i++ {
				r.Record(raceSpan(w, i))
				d, top := raceDecision(w, i)
				dr.Add(&d, top...)
			}
		}()
	}
	writing.Wait()
	close(stop)
	reading.Wait()

	for _, sum := range r.Traces(TraceFilter{}) {
		spans, _ := r.Trace(sum.TraceID)
		for _, sd := range spans {
			checkSpan(sd)
		}
	}
	if ds := dr.List(DecisionFilter{}); len(ds) != 4 || ds[0].Seq != writers*each {
		t.Fatalf("decision ring after %d adds: %d records, newest seq %d", writers*each, len(ds), ds[0].Seq)
	}
	checkDecisions(dr.List(DecisionFilter{}))
}

// A decision listed out of the ring owns its rows: the ring wrapping over
// the slot afterwards does not change it.
func TestDecisionListDeepCopies(t *testing.T) {
	dr := &DecisionRing{buf: make([]decisionSlot, 1)}
	d, top := raceDecision(1, 5)
	dr.Add(&d, top...)
	got := dr.List(DecisionFilter{Job: "w1"})
	d2, top2 := raceDecision(2, 9)
	dr.Add(&d2, top2...)
	if len(got) != 1 || got[0].TopUCB[0] != top[0] || got[0].Arm != 5 {
		t.Fatalf("listed record changed under a later Add: %+v", got)
	}
	if got := dr.List(DecisionFilter{Kind: "admission"}); got != nil {
		t.Fatalf("kind filter matched %+v", got)
	}
}

// Attributes past the inline eight spill to a map instead of being
// dropped, numeric attributes read back in base 10, and a repeated key
// overwrites.
func TestSpanAttributesInlineAndSpilled(t *testing.T) {
	s := SpanAt(NewTraceID(), "", "span_test_root", time.Now())
	want := map[string]string{}
	for k := 0; k < maxAttrs+3; k++ {
		key := "k" + strconv.Itoa(k)
		s.SetAttr(key, "old")
		s.SetAttr(key, "v"+strconv.Itoa(k))
		want[key] = "v" + strconv.Itoa(k)
	}
	st := s.Child("span_test_child", time.Now())
	st.SetAttrUint("wal_seq", 18446744073709551615)
	st.SetAttr("empty", "")
	st.End()
	if got := s.Data().Attrs; !maps.Equal(got, want) {
		t.Fatalf("attrs = %v, want %v", got, want)
	}
	spans, _ := DefaultRecorder().Trace(s.Data().TraceID)
	if len(spans) != 1 || spans[0].ParentID != s.ID() || len(spans[0].SpanID) != 8 ||
		!maps.Equal(spans[0].Attrs, map[string]string{"wal_seq": "18446744073709551615", "empty": ""}) {
		t.Fatalf("child read back as %+v", spans)
	}
}

// A span imported from another process keeps its eight smallest keys and
// at most 256 bytes of any string, and what was cut is counted.
func TestImportBoundsSpans(t *testing.T) {
	r := NewRecorder(8)
	sd := SpanData{TraceID: "1234123412341234", SpanID: "i1", Op: "span_test_child",
		Err: strings.Repeat("é", 300), Attrs: map[string]string{}}
	for k := 0; k < 100; k++ {
		sd.Attrs[fmt.Sprintf("k%03d", k)] = "v"
	}
	sd.Attrs["k000"] = strings.Repeat("x", 1<<20)
	sd.Attrs[strings.Repeat("a", 300)] = "long key"
	before := importCuts.Value()
	r.Import(sd.TraceID, "", []SpanData{sd})
	spans, _ := r.Trace(sd.TraceID)
	if len(spans) != 1 || len(spans[0].Attrs) != maxAttrs {
		t.Fatalf("imported %+v", spans)
	}
	got := spans[0]
	if got.Attrs["k000"] != strings.Repeat("x", maxImportLen) || got.Attrs[strings.Repeat("a", maxImportLen)] != "long key" ||
		got.Attrs["k006"] != "v" || got.Attrs["k007"] != "" {
		t.Fatalf("kept attrs %v, want the 8 smallest keys cut to %d bytes", got.Attrs, maxImportLen)
	}
	if got.Err != strings.Repeat("é", maxImportLen/2) {
		t.Fatalf("error cut to %d bytes, want %d on a rune boundary", len(got.Err), maxImportLen)
	}
	// 93 attributes dropped; the error, one key and one value cut.
	if n := importCuts.Value() - before; n != 93+3 {
		t.Fatalf("counted %d cuts, want %d", n, 96)
	}
}

// A ring slot must hold no more than a pointer ring held per span at
// steady state before spans were stored by value: measured on a 2-worker
// engine drain, 331 bytes (the span, its ID and its attribute map) and 367
// with a WAL. Growing the record past its budget trips this.
func TestSlotSize(t *testing.T) {
	if n := unsafe.Sizeof(slot{}); n > 304 {
		t.Fatalf("ring slot is %d bytes, budget 304", n)
	}
}

// BenchmarkSpanRecord pins what recording costs: a span (0 allocations),
// a lease-shaped root with four attributes (0) and a decision (0).
func BenchmarkSpanRecord(b *testing.B) {
	trace, parent := NewTraceID(), "5eed0001"
	t0 := time.Now()
	b.Run("stage", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			s := SpanAt(trace, parent, "span_test_child", t0)
			s.EndAt(t0)
		}
	})
	b.Run("root", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			s := SpanAt(trace, "", "span_test_root", t0)
			s.SetAttr("job", "job-0001")
			s.SetAttr("tenant", "bench")
			s.SetAttr("candidate", "resnet/lr=0.1")
			s.SetAttr("outcome", "completed")
			s.EndAt(t0)
		}
	})
	b.Run("decision", func(b *testing.B) {
		var r DecisionRing
		d, top := raceDecision(1, 1)
		top = append(top, ArmScore{Arm: 3, UCB: 0.5})
		r.Add(&d, top...) // allocates the ring
		b.ReportAllocs()
		for b.Loop() {
			r.Add(&d, top...)
		}
	})
}
