package server_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/client"
	"repro/internal/server"
)

// The same requests, sent as JSON to one durable service and as tensor
// bodies (the client's encoding) to another that started alike, get the
// same ids, outputs and models on all four float-body routes, and leave
// byte-identical WAL segments.
func TestTensorAndJSONBodiesAreEquivalent(t *testing.T) {
	js, _ := newFeedFixture(t, nil)
	ts, _ := newFeedFixture(t, nil)
	cl := client.New(ts.srv.URL)
	ctx := context.Background()
	decode := func(url string, req, dst any) {
		t.Helper()
		resp := postJSON(t, url, req)
		defer resp.Body.Close()
		if err := json.NewDecoder(resp.Body).Decode(dst); err != nil {
			t.Fatal(err)
		}
	}

	feed := server.FeedRequest{
		Inputs:  [][]float64{{0.1, math.Copysign(0, -1), 5e-324, math.MaxFloat64}, {1, 2, 3, 4}, {1e-300, -2.5, 7, 1.0 / 3}},
		Outputs: [][]float64{{1, 0}, {0, 1}, {0.25, 0.75}},
	}
	var jsFeed server.FeedResponse
	decode(js.srv.URL+"/jobs/"+js.jobID+"/feed", feed, &jsFeed)
	tsIDs, err := cl.Feed(ctx, ts.jobID, feed.Inputs, feed.Outputs)
	if err != nil || !reflect.DeepEqual(jsFeed.IDs, tsIDs) || len(tsIDs) != 3 {
		t.Fatalf("feed ids: JSON %v, tensor %v (%v)", jsFeed.IDs, tsIDs, err)
	}
	for _, f := range []*feedFixture{js, ts} {
		if _, err := f.sc.RunRounds(3); err != nil {
			t.Fatal(err)
		}
	}

	in := []float64{0.5, math.Copysign(0, -1), 2, 1e-7}
	var jsInfer server.InferResponse
	decode(js.srv.URL+"/jobs/"+js.jobID+"/infer", server.InferRequest{Input: in}, &jsInfer)
	tsInfer, err := cl.Infer(ctx, ts.jobID, in)
	if err != nil || !reflect.DeepEqual(jsInfer, tsInfer) || tsInfer.Model == "" {
		t.Fatalf("infer: JSON %+v, tensor %+v (%v)", jsInfer, tsInfer, err)
	}

	batch := server.InferBatchRequest{Inputs: append(feed.Inputs, in)}
	var jsBatch server.InferBatchResponse
	decode(js.srv.URL+"/jobs/"+js.jobID+"/infer/batch", batch, &jsBatch)
	tsBatch, err := cl.InferBatch(ctx, ts.jobID, batch.Inputs)
	if err != nil || !reflect.DeepEqual(jsBatch, tsBatch) || len(tsBatch.Outputs) != len(batch.Inputs) {
		t.Fatalf("infer/batch: JSON %+v, tensor %+v (%v)", jsBatch, tsBatch, err)
	}

	resp := postJSON(t, js.srv.URL+"/jobs/"+js.jobID+"/infer/stream", batch)
	var jsStream []string
	for sc := bufio.NewScanner(resp.Body); sc.Scan(); {
		jsStream = append(jsStream, sc.Text())
	}
	resp.Body.Close()
	tsStream := []string{}
	model, err := cl.InferStream(ctx, ts.jobID, batch.Inputs, func(i int, out []float64) error {
		line, err := json.Marshal(server.InferStreamLine{Index: i, Output: out})
		tsStream = append(tsStream, string(line))
		return err
	})
	header, _ := json.Marshal(server.InferStreamHeader{Model: model, Count: len(batch.Inputs)})
	if err != nil || !reflect.DeepEqual(jsStream, append([]string{string(header)}, tsStream...)) {
		t.Fatalf("infer/stream: JSON %q, tensor %s %q (%v)", jsStream, header, tsStream, err)
	}

	jsStatus, _ := js.sc.Status(js.jobID)
	tsStatus, _ := ts.sc.Status(ts.jobID)
	if !reflect.DeepEqual(jsStatus, tsStatus) || jsStatus.Examples != 3 || jsStatus.Trained == 0 {
		t.Fatalf("status: JSON %+v, tensor %+v", jsStatus, tsStatus)
	}
	segments := func(dir string) map[string][]byte {
		names, err := filepath.Glob(filepath.Join(dir, "wal-*.wal"))
		if err != nil || len(names) == 0 {
			t.Fatalf("no WAL segments in %s (%v)", dir, err)
		}
		out := make(map[string][]byte)
		for _, name := range names {
			if out[filepath.Base(name)], err = os.ReadFile(name); err != nil {
				t.Fatal(err)
			}
		}
		return out
	}
	jsWAL, tsWAL := segments(js.dir), segments(ts.dir)
	if !reflect.DeepEqual(jsWAL, tsWAL) {
		t.Fatal("the two services wrote different WAL segments")
	}
	// The fed floats are in those segments as raw bits.
	var all []byte
	for _, b := range tsWAL {
		all = append(all, b...)
	}
	for _, v := range feed.Inputs {
		var raw []byte
		for _, x := range v {
			raw = binary.LittleEndian.AppendUint64(raw, math.Float64bits(x))
		}
		if !bytes.Contains(all, raw) {
			t.Errorf("no WAL frame holds the raw bits of input %v", v)
		}
	}
}
