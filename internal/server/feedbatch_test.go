package server_test

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/admission"
	"repro/internal/cluster"
	"repro/internal/rawf64"
	"repro/internal/server"
	"repro/internal/storage"
)

// feedFixture is a durable scheduler behind the HTTP API with one submitted
// job; reopen simulates a crash (no Close, no Compact) and recovers the
// directory into a fresh scheduler.
type feedFixture struct {
	sc    *server.Scheduler
	log   *storage.Log
	srv   *httptest.Server
	dir   string
	jobID string
}

func newFeedFixture(t *testing.T, quota *admission.Quota) (*feedFixture, func() *server.Scheduler) {
	t.Helper()
	dir := t.TempDir()
	now := time.Unix(5000, 0)
	open := func() (*server.Scheduler, *storage.Log) {
		var ctrl *admission.Controller
		if quota != nil {
			var err error
			if ctrl, err = admission.NewController(admission.Config{Tenants: map[string]admission.Quota{"alice": *quota}}); err != nil {
				t.Fatal(err)
			}
			ctrl.SetClock(func() time.Time { return now })
		}
		sc := server.NewScheduler(server.NewSimTrainer(cluster.NewPool(8, 0.9), 42), ctrl, "http://test:9000")
		log, _, err := sc.Recover(dir, storage.LogOptions{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { log.Close() })
		return sc, log
	}
	sc, log := open()
	job, err := sc.Submit("alice", tsProgram)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(server.NewAPI(sc).Handler())
	t.Cleanup(srv.Close)
	return &feedFixture{sc: sc, log: log, srv: srv, dir: dir, jobID: job.ID},
		func() *server.Scheduler { sc, _ := open(); return sc }
}

// feed posts n well-formed examples, the one at position bad (if in range)
// two elements wide instead of four, and decodes either envelope.
func (f *feedFixture) feed(t *testing.T, n, bad int) (status int, ids []int, code string) {
	t.Helper()
	req := server.FeedRequest{}
	for i := 0; i < n; i++ {
		in := []float64{float64(i), 2, 3, 4}
		if i == bad {
			in = in[:2]
		}
		req.Inputs = append(req.Inputs, in)
		req.Outputs = append(req.Outputs, []float64{1, 0})
	}
	resp := postJSON(t, f.srv.URL+"/jobs/"+f.jobID+"/feed", req)
	defer resp.Body.Close()
	var body struct {
		IDs  []int  `json:"ids"`
		Code string `json:"code"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body.IDs, body.Code
}

func (f *feedFixture) examples(t *testing.T, sc *server.Scheduler) int {
	t.Helper()
	st, err := sc.Status(f.jobID)
	if err != nil {
		t.Fatal(err)
	}
	return st.Examples
}

// A feed request is one WAL commit however many examples it carries.
func TestFeedRequestIsOneGroupCommit(t *testing.T) {
	f, _ := newFeedFixture(t, nil)
	before := f.log.Stats()
	const n = 16
	status, ids, _ := f.feed(t, n, -1)
	if status != http.StatusOK || len(ids) != n {
		t.Fatalf("HTTP %d with %d ids, want 200 with %d", status, len(ids), n)
	}
	after := f.log.Stats()
	if got := after.GroupCommits - before.GroupCommits; got != 1 {
		t.Errorf("a lone %d-example feed cost %d group commits, want 1", n, got)
	}
	if got := after.Appends - before.Appends; got != n {
		t.Errorf("%d WAL events appended, want %d", got, n)
	}
}

// A wrong-width example at position k ends the request with 400 and the
// ids of the k examples before it — and exactly those k are stored,
// committed and recovered.
func TestFeedWrongWidthCommitsExactlyThePrefix(t *testing.T) {
	f, reopen := newFeedFixture(t, nil)
	const n, k = 6, 3
	status, ids, _ := f.feed(t, n, k)
	if status != http.StatusBadRequest {
		t.Fatalf("HTTP %d, want 400", status)
	}
	if len(ids) != k || ids[0] != 1 || ids[k-1] != k {
		t.Fatalf("error envelope ids %v, want 1..%d", ids, k)
	}
	if got := f.examples(t, f.sc); got != k {
		t.Errorf("store holds %d examples, want %d", got, k)
	}
	if got := f.examples(t, reopen()); got != k {
		t.Errorf("recovered %d examples, want %d", got, k)
	}
}

// A rate-limit refusal mid-request answers 429 with the committed prefix.
func TestFeedRateLimitMidRequestCommitsThePrefix(t *testing.T) {
	// Burst 4: the submit spends one token, leaving three for examples.
	f, reopen := newFeedFixture(t, &admission.Quota{RatePerSec: 1, Burst: 4})
	before := f.log.Stats().GroupCommits
	status, ids, code := f.feed(t, 5, -1)
	if status != http.StatusTooManyRequests || code != server.CodeQuotaExceeded {
		t.Fatalf("HTTP %d code %q, want 429 %s", status, code, server.CodeQuotaExceeded)
	}
	if len(ids) != 3 {
		t.Fatalf("envelope carries ids %v, want the 3 admitted examples", ids)
	}
	if got := f.log.Stats().GroupCommits - before; got != 1 {
		t.Errorf("the admitted prefix cost %d group commits, want 1", got)
	}
	if got := f.examples(t, reopen()); got != 3 {
		t.Errorf("recovered %d examples, want 3", got)
	}
}

// A request whose commit fails acknowledges nothing.
func TestFeedFailedAppendAcksNoIDs(t *testing.T) {
	f, _ := newFeedFixture(t, nil)
	if err := f.log.Close(); err != nil {
		t.Fatal(err)
	}
	ids, err := f.sc.FeedBatch(f.jobID, [][]float64{{1, 2, 3, 4}, {5, 6, 7, 8}}, [][]float64{{1, 0}, {0, 1}})
	if err == nil || ids != nil {
		t.Fatalf("FeedBatch on a closed WAL returned ids %v, err %v; want no ids and an error", ids, err)
	}
	if _, err := f.sc.Feed(f.jobID, []float64{1, 2, 3, 4}, []float64{1, 0}); err == nil {
		t.Error("Feed on a closed WAL succeeded")
	}
	status, ids, _ := f.feed(t, 3, -1)
	if status == http.StatusOK || len(ids) != 0 {
		t.Errorf("HTTP %d with ids %v, want an error envelope without ids", status, ids)
	}
}

func TestFeedBatchArityMismatch(t *testing.T) {
	f, _ := newFeedFixture(t, nil)
	if ids, err := f.sc.FeedBatch(f.jobID, [][]float64{{1, 2, 3, 4}, {5, 6, 7, 8}}, [][]float64{{1, 0}}); err == nil || ids != nil {
		t.Fatalf("2 inputs vs 1 output: ids %v, err %v", ids, err)
	}
	if _, err := f.sc.FeedBatch("job-9999", nil, nil); !errors.Is(err, server.ErrNoJob) {
		t.Errorf("unknown job: %v, want ErrNoJob", err)
	}
}

// A NaN or ±Inf fed value is refused like a wrong width, whichever way it
// arrives: the examples before it are stored, committed and acknowledged,
// it is not, and memory never runs ahead of the WAL.
func TestFeedNonFiniteCommitsThePrefix(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		f, reopen := newFeedFixture(t, nil)
		ids, err := f.sc.FeedBatch(f.jobID, [][]float64{{1, 2, 3, 4}, {bad, 1, 1, 1}}, [][]float64{{1, 0}, {0, 1}})
		if want := fmt.Sprintf("server: input element 0 is %v, inputs must be finite", bad); len(ids) != 1 || ids[0] != 1 || err == nil || err.Error() != want {
			t.Fatalf("FeedBatch with input %v: ids %v, err %v; want [1] and %q", bad, ids, err, want)
		}
		ids, err = f.sc.FeedBatch(f.jobID, [][]float64{{1, 2, 3, 4}}, [][]float64{{1, bad}})
		if want := fmt.Sprintf("server: output element 1 is %v, outputs must be finite", bad); len(ids) != 0 || err == nil || err.Error() != want {
			t.Fatalf("FeedBatch with output %v: ids %v, err %v; want none and %q", bad, ids, err, want)
		}
		// Over HTTP a tensor body can carry the value; JSON cannot.
		body := rawf64.AppendMatrix(nil, [][]float64{{5, 6, 7, 8}, {1, 2, bad, 4}})
		body = rawf64.AppendMatrix(body, [][]float64{{0, 1}, {1, 0}})
		resp := postTensor(t, f.srv.URL+"/jobs/"+f.jobID+"/feed", bytes.NewReader(body))
		var env server.ErrorBody
		if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || len(env.IDs) != 1 || env.IDs[0] != 2 || !strings.Contains(env.Error, "inputs must be finite") {
			t.Fatalf("tensor feed with %v: HTTP %d %+v, want 400 with ids [2]", bad, resp.StatusCode, env)
		}
		if id, err := f.sc.Feed(f.jobID, []float64{1, 2, 3, 4}, []float64{1, 0}); err != nil || id != 3 {
			t.Fatalf("next feed: id %d, err %v; want 3", id, err)
		}
		if got := f.examples(t, f.sc); got != 3 {
			t.Errorf("store holds %d examples, want 3", got)
		}
		if got := f.examples(t, reopen()); got != 3 {
			t.Errorf("recovered %d examples, want 3", got)
		}
	}
}

func postTensor(t *testing.T, url string, body io.Reader) *http.Response {
	t.Helper()
	resp, err := http.Post(url, server.TensorContentType, body)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// A tensor body the decoder cannot frame answers 400 with the envelope and
// stores nothing.
func TestMalformedTensorBody(t *testing.T) {
	f, _ := newFeedFixture(t, nil)
	good, err := server.TensorBody(&server.FeedRequest{Inputs: [][]float64{{1, 2, 3, 4}}, Outputs: [][]float64{{1, 0}}})
	if err != nil {
		t.Fatal(err)
	}
	for name, body := range map[string][]byte{
		"count past the end": {1, 9, 0, 0},
		"truncated float":    good[:len(good)-1],
		"trailing bytes":     append(bytes.Clone(good), 0),
		"huge row count":     binary.AppendUvarint(nil, 1<<40),
		"non-minimal count":  append([]byte{0x81, 0x00}, good[1:]...),
		"JSON text":          []byte(`{"inputs":[[1,2,3,4]],"outputs":[[1,0]]}`),
	} {
		resp := postTensor(t, f.srv.URL+"/jobs/"+f.jobID+"/feed", bytes.NewReader(body))
		var env server.ErrorBody
		if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.HasPrefix(env.Error, "invalid tensor body: ") || env.IDs != nil {
			t.Errorf("%s: HTTP %d %+v, want 400 invalid tensor body", name, resp.StatusCode, env)
		}
	}
	if got := f.examples(t, f.sc); got != 0 {
		t.Errorf("malformed bodies stored %d examples", got)
	}
}

// A body over MaxRequestBytes answers 413 with a typed code, on every
// surface that decodes through ReadJSON, and as a tensor body.
func TestRequestBodyTooLarge(t *testing.T) {
	f, _ := newFeedFixture(t, nil)
	for contentType, body := range map[string]io.Reader{
		"application/json":       strings.NewReader(strings.Repeat(" ", server.MaxRequestBytes) + `{"inputs":[[1,2,3,4]],"outputs":[[1,0]]}`),
		server.TensorContentType: bytes.NewReader(make([]byte, server.MaxRequestBytes+1)),
	} {
		resp, err := http.Post(f.srv.URL+"/jobs/"+f.jobID+"/feed", contentType, body)
		if err != nil {
			t.Fatal(err)
		}
		var env server.ErrorBody
		if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge || env.Code != server.CodeRequestTooLarge {
			t.Fatalf("%s: HTTP %d code %q (%s), want 413 %s", contentType, resp.StatusCode, env.Code, env.Error, server.CodeRequestTooLarge)
		}
	}
	if got := f.examples(t, f.sc); got != 0 {
		t.Errorf("an oversized request stored %d examples", got)
	}
	// The bound is per request: the next, small one reaches the schema check.
	if status, _, code := f.feed(t, 1, 0); status != http.StatusBadRequest || code != "" {
		t.Errorf("small bad request: HTTP %d code %q, want a plain 400", status, code)
	}
}
