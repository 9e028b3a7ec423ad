package server

import (
	"fmt"
	"hash/fnv"
	"math"

	"repro/internal/rawf64"
	"repro/internal/telemetry"
)

// Online serving: the read path next to training. An InferSession resolves
// everything that needs job state — the best model under the store's lock,
// the schema, the pseudo-model seed — exactly once; Apply is then pure
// arithmetic on immutable fields, so a batched or streaming request holds
// no per-job lock while computing or encoding thousands of outputs.

var (
	inferRequests = telemetry.Default().CounterVec(
		"easeml_infer_requests_total",
		"Inference requests by mode (single, batch, stream).",
		"mode")
	inferOutputs = telemetry.Default().Counter(
		"easeml_infer_outputs_total",
		"Individual outputs produced across all inference modes.")
	inferBatchSize = telemetry.Default().ValueHistogram(
		"easeml_infer_batch_size",
		"Inputs per batched or streaming inference request.")
)

// InferSession is one resolved serving handle: the job's best model at
// resolve time plus the precomputed seed and schema widths. It is a value
// snapshot — a model that becomes best after resolution is picked up by
// the next session, never mid-batch, so every output in one response comes
// from one model.
type InferSession struct {
	// Model is the name of the best trained candidate serving this session.
	Model string

	seed   float64
	inLen  int
	outLen int
}

// NewInferSession resolves a job's serving state: ErrNoJob when the ID is
// unknown, an error before the first candidate finishes training.
func (sc *Scheduler) NewInferSession(jobID string) (*InferSession, error) {
	job, ok := sc.Job(jobID)
	if !ok {
		return nil, errNoJob(jobID)
	}
	best, ok := job.store.Best()
	if !ok {
		return nil, fmt.Errorf("server: job %q has no trained model yet", jobID)
	}
	h := fnv.New64a()
	h.Write([]byte(best.Name))
	return &InferSession{
		Model:  best.Name,
		seed:   float64(h.Sum64()%997) / 997,
		inLen:  job.Program.Input.TotalElements(),
		outLen: job.Program.Output.TotalElements(),
	}, nil
}

// checkInput validates one input vector against the session's schema:
// exact element count and finite values only. NaN and ±Inf would propagate
// through the sin/abs pseudo-model as garbage the client cannot tell from
// a prediction, so they are rejected up front.
func (s *InferSession) checkInput(input []float64) error {
	if len(input) != s.inLen {
		return fmt.Errorf("server: input has %d elements, schema wants %d", len(input), s.inLen)
	}
	return checkFinite("input", input)
}

// checkFinite refuses a NaN or ±Inf element of v, naming v what.
func checkFinite(what string, v []float64) error {
	if i := rawf64.NonFinite(v); i >= 0 {
		return fmt.Errorf("server: %s element %d is %v, %ss must be finite", what, i, v[i], what)
	}
	return nil
}

// apply writes the pseudo-prediction for input into out (resized as
// needed) and returns it. Callers have already validated the input.
func (s *InferSession) apply(input, out []float64) []float64 {
	if cap(out) < s.outLen {
		out = make([]float64, s.outLen)
	}
	out = out[:s.outLen]
	var acc float64
	for _, v := range input {
		acc += v
	}
	for i := range out {
		out[i] = math.Abs(math.Sin(float64(acc*s.seed) + float64(i)))
	}
	inferOutputs.Inc()
	return out
}

// Apply validates one input and returns its prediction.
func (s *InferSession) Apply(input []float64) ([]float64, error) {
	if err := s.checkInput(input); err != nil {
		return nil, err
	}
	return s.apply(input, nil), nil
}

// InferBatch applies the best model to many inputs under one session: one
// job lookup, one best-model resolution, one validation sweep, then pure
// computation. Validation covers the whole batch before any output is
// produced, so a batch either succeeds completely or fails without partial
// results — the index of the offending input is in the error.
func (sc *Scheduler) InferBatch(jobID string, inputs [][]float64) ([][]float64, string, error) {
	sess, err := sc.NewInferSession(jobID)
	if err != nil {
		return nil, "", err
	}
	for i, in := range inputs {
		if err := sess.checkInput(in); err != nil {
			return nil, "", fmt.Errorf("input %d: %w", i, err)
		}
	}
	inferRequests.With("batch").Inc()
	inferBatchSize.Observe(uint64(len(inputs)))
	outs := make([][]float64, len(inputs))
	flat := make([]float64, len(inputs)*sess.outLen)
	for i, in := range inputs {
		outs[i] = sess.apply(in, flat[i*sess.outLen:(i+1)*sess.outLen])
	}
	return outs, sess.Model, nil
}
