package server

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
)

// HTTP surface of the serving path: POST /jobs/{id}/infer/batch answers
// many inputs with one lock acquisition and one JSON body; POST
// /jobs/{id}/infer/stream answers the same request shape as NDJSON over a
// chunked response, flushing as it goes so slow readers exert backpressure
// on the encoder instead of buffering the whole result set.

// InferBatchRequest is the POST /jobs/{id}/infer/batch (and infer/stream)
// payload.
type InferBatchRequest struct {
	Inputs [][]float64 `json:"inputs"`
}

// InferBatchResponse is the batched infer reply: Outputs[i] predicts
// Inputs[i], all from the single model named Model.
type InferBatchResponse struct {
	Outputs [][]float64 `json:"outputs"`
	Model   string      `json:"model"`
}

// InferStreamHeader is the first NDJSON line of an infer/stream response.
// The model and count are fixed for the whole stream (one session), so
// they are sent once instead of per line.
type InferStreamHeader struct {
	Model string `json:"model"`
	Count int    `json:"count"`
}

// InferStreamLine is one per-input NDJSON line of an infer/stream
// response: the prediction for Inputs[Index].
type InferStreamLine struct {
	Index  int       `json:"index"`
	Output []float64 `json:"output"`
}

func (a *API) handleInferBatch(w http.ResponseWriter, r *http.Request) {
	var req InferBatchRequest
	if !readFloatBody(w, r, &req) {
		return
	}
	outs, model, err := a.sched.InferBatch(r.PathValue("id"), req.Inputs)
	if err != nil {
		WriteError(w, userErrStatus(err), err)
		return
	}
	if outs == nil {
		outs = [][]float64{}
	}
	WriteJSON(w, http.StatusOK, InferBatchResponse{Outputs: outs, Model: model})
}

// handleInferStream serves the NDJSON streaming variant. The whole batch
// is validated before the first byte of the 200 is written — after that
// the computation is pure, so the stream cannot fail mid-flight for any
// reason but the client going away. Lines are flushed individually: the
// session holds no job lock, so a slow consumer stalls only its own
// connection.
func (a *API) handleInferStream(w http.ResponseWriter, r *http.Request) {
	var req InferBatchRequest
	if !readFloatBody(w, r, &req) {
		return
	}
	sess, err := a.sched.NewInferSession(r.PathValue("id"))
	if err != nil {
		WriteError(w, userErrStatus(err), err)
		return
	}
	for i, in := range req.Inputs {
		if err := sess.checkInput(in); err != nil {
			WriteError(w, userErrStatus(err), fmt.Errorf("input %d: %w", i, err))
			return
		}
	}
	inferRequests.With("stream").Inc()
	inferBatchSize.Observe(uint64(len(req.Inputs)))

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	flush := func() bool {
		if bw.Flush() != nil {
			return false // client gone; stop computing for a dead socket
		}
		if flusher != nil {
			flusher.Flush()
		}
		return true
	}
	_ = enc.Encode(InferStreamHeader{Model: sess.Model, Count: len(req.Inputs)})
	if !flush() {
		return
	}
	var out []float64
	for i, in := range req.Inputs {
		out = sess.apply(in, out)
		_ = enc.Encode(InferStreamLine{Index: i, Output: out})
		if !flush() {
			return
		}
	}
}
