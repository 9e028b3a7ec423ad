package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/easeml"
)

// apiSizes are the frozen work sizes of api_mixed.
type apiSizes struct {
	jobs       int           // jobs training in the background
	trainDelay time.Duration // wall time of one simulated training
	rate       float64       // phase A arrival rate, ops/s
	limit      time.Duration // phase A latency limit
	batch      int           // inputs per InferBatch
	feed       int           // examples per phase A Feed
	bulk       int           // phase B examples
	bulkCall   int           // examples per phase B Feed call
	recovers   int           // phase C recoveries (median reported)
}

func apiSizesFor(smoke bool) apiSizes {
	if smoke {
		return apiSizes{jobs: 6, trainDelay: 2 * time.Millisecond, rate: 100, limit: 50 * time.Millisecond,
			batch: 8, feed: 2, bulk: 20, bulkCall: 10, recovers: 1}
	}
	return apiSizes{jobs: 24, trainDelay: 25 * time.Millisecond, rate: 100, limit: 50 * time.Millisecond,
		batch: 16, feed: 4, bulk: 800, bulkCall: 100, recovers: 3}
}

// Phase A operation kinds with their share of the mix.
const (
	opInfer = iota
	opInferBatch
	opFeed
	opStatus
	opSubmit
	numOpKinds
)

var (
	opNames = [numOpKinds]string{"infer", "infer_batch", "feed", "status", "submit"}
	opShare = [numOpKinds]float64{0.50, 0.15, 0.20, 0.10, 0.05}
	// submitPrograms are the three repeated program texts phase A submits,
	// so the DSL plan cache sees repeats.
	submitPrograms = [3]string{imageProgram, seriesProgram, "{input: {[Tensor[4]], [next]}, output: {[Tensor[2]], []}}"}
)

// plannedOp is one generated phase A operation.
type plannedOp struct {
	kind int
	job  int // index into the background jobs
	pick int // payload pool index / program index
}

// pixelVector is an input of n elements with pixel values k/255, shifted by
// variant so different payloads differ.
func pixelVector(n, variant int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = float64((i*7+variant*13)%256) / 255
	}
	return v
}

// payloadPool holds the pre-generated request bodies per input width, so the
// generators spend their time sending, not generating.
type payloadPool struct {
	single map[int][][]float64   // width → inputs
	batch  map[int][][][]float64 // width → batches
}

const poolVariants = 8

func newPayloadPool(batch int) *payloadPool {
	p := &payloadPool{single: map[int][][]float64{}, batch: map[int][][][]float64{}}
	for _, w := range []int{imageInputs, seriesInputs} {
		for v := 0; v < poolVariants; v++ {
			p.single[w] = append(p.single[w], pixelVector(w, v))
			b := make([][]float64, batch)
			for i := range b {
				b[i] = pixelVector(w, v*batch+i)
			}
			p.batch[w] = append(p.batch[w], b)
		}
	}
	return p
}

// apiSetup boots the durable service with its background engine, submits
// the jobs over HTTP and runs serialized rounds until every job has a model
// to serve.
func apiSetup(c *runCtx, sz apiSizes, jobs []jobSpec, quotas map[string]easeml.TenantQuota) (*httpService, []string, error) {
	h, err := openHTTPService(c, easeml.ServiceConfig{
		GPUs: 24, Seed: serviceSeed(c.seed), Quotas: quotas, Workers: 1, TrainDelay: sz.trainDelay,
	}, true, false)
	if err != nil {
		return nil, nil, err
	}
	ids := make([]string, len(jobs))
	for i, j := range jobs {
		resp, err := h.cl.Submit(context.Background(), j.Tenant, j.Program)
		if err != nil {
			h.close()
			return nil, nil, err
		}
		ids[i] = resp.ID
	}
	for served := 0; served < len(ids); {
		if ran, err := h.svc.RunRounds(len(ids) - served); err != nil || ran == 0 {
			h.close()
			return nil, nil, fmt.Errorf("warm-up rounds stalled with %d of %d jobs served: %v", served, len(ids), err)
		}
		served = 0
		for _, id := range ids {
			if st, err := h.svc.Status(id); err == nil && st.Trained > 0 {
				served++
			}
		}
	}
	if err := h.svc.StartEngine(); err != nil {
		h.close()
		return nil, nil, err
	}
	return h, ids, nil
}

// runAPIMixed is the tenant-facing API under training load. Phase A is an
// open-loop Poisson mix of infer, batch infer, feed, status and submit timed
// from each op's due time; phase B bulk-loads examples over one connection;
// phase C recovers the crash image.
func runAPIMixed(c *runCtx) (*outcome, error) {
	o := newOutcome()
	sz := apiSizesFor(c.smoke)
	jobs, quotas := jobMix(c.seed, sz.jobs)
	// The bulk-load target must be an image job (768 floats per example).
	jobs[0].Program, jobs[0].Inputs = imageProgram, imageInputs

	var h *httpService
	var ids []string
	var err error
	for i := 0; i < setupRepeats(c); i++ {
		if h != nil {
			_ = h.svc.StopEngine()
			h.close()
		}
		t0 := time.Now()
		if h, ids, err = apiSetup(c, sz, jobs, quotas); err != nil {
			return nil, err
		}
		o.setupS = append(o.setupS, time.Since(t0).Seconds())
	}
	defer h.close()
	engineRunning := true
	defer func() {
		if engineRunning {
			_ = h.svc.StopEngine()
		}
	}()

	// Phase A plan: arrivals, kinds, targets and payloads all from the seed.
	rng := rand.New(rand.NewSource(c.seed ^ 0x6f7073))
	due := poissonSchedule(rng, sz.rate, c.budget())
	plan := make([]plannedOp, len(due))
	for i := range plan {
		u, kind := rng.Float64(), 0
		for acc := opShare[0]; kind < numOpKinds-1 && u >= acc; acc += opShare[kind] {
			kind++
		}
		plan[i] = plannedOp{kind: kind, job: rng.Intn(len(jobs)), pick: rng.Intn(poolVariants)}
	}
	pool := newPayloadPool(sz.batch)
	labels := [][]float64{{1, 0}, {0, 1}}

	var before promSample
	if c.traced() {
		if before, _, err = h.scrape(); err != nil {
			return nil, err
		}
	}
	probe := startProbe()
	var verified, skipped atomic.Int64
	var problemMu sync.Mutex
	mismatch := func(format string, args ...any) {
		problemMu.Lock()
		o.problemf(format, args...)
		problemMu.Unlock()
	}
	do := func(i int) error {
		op := plan[i]
		job, id := jobs[op.job], ids[op.job]
		span := c.tr.begin("op."+opNames[op.kind], 0, uint64(i+1))
		ctx := withParent(context.Background(), span, uint64(i+1))
		defer c.tr.end(span)
		switch op.kind {
		case opInfer:
			in := pool.single[job.Inputs][op.pick]
			resp, err := h.cl.Infer(ctx, id, in)
			if err != nil {
				return err
			}
			// The reply must be what the facade computes for the same input
			// under the same model (the best model can change between the
			// two calls while training runs; those pairs are skipped).
			want, model, err := h.svc.Infer(id, in)
			switch {
			case err != nil:
				return err
			case model != resp.Model:
				skipped.Add(1)
			case !slices.Equal(want, resp.Output):
				mismatch("infer %s: HTTP reply differs from Service.Infer under model %s", id, model)
			default:
				verified.Add(1)
			}
		case opInferBatch:
			in := pool.batch[job.Inputs][op.pick]
			resp, err := h.cl.InferBatch(ctx, id, in)
			if err != nil {
				return err
			}
			want, model, err := h.svc.InferBatch(id, in)
			switch {
			case err != nil:
				return err
			case model != resp.Model:
				skipped.Add(1)
			case len(want) != len(resp.Outputs):
				mismatch("infer/batch %s: %d outputs, Service.InferBatch gives %d", id, len(resp.Outputs), len(want))
			default:
				for k := range want {
					if !slices.Equal(want[k], resp.Outputs[k]) {
						mismatch("infer/batch %s: output %d differs from Service.InferBatch under model %s", id, k, model)
						break
					}
				}
				verified.Add(1)
			}
		case opFeed:
			ins := make([][]float64, sz.feed)
			outs := make([][]float64, sz.feed)
			for k := range ins {
				ins[k] = pool.single[job.Inputs][(op.pick+k)%poolVariants]
				outs[k] = labels[k%2]
			}
			got, err := h.cl.Feed(ctx, id, ins, outs)
			if err != nil {
				return err
			}
			if len(got) != sz.feed {
				return fmt.Errorf("feed %s: %d ids for %d examples", id, len(got), sz.feed)
			}
		case opStatus:
			if _, err := h.cl.Status(ctx, id); err != nil {
				return err
			}
		case opSubmit:
			prog := submitPrograms[op.pick%len(submitPrograms)]
			if _, err := h.cl.Submit(ctx, fmt.Sprintf("load-%02d", op.pick), prog); err != nil {
				return err
			}
		}
		return nil
	}

	// Phase A. A side goroutine notes the process CPU clock every second,
	// so each second of the schedule is one slice.
	cpuMarks := []time.Duration{cpuNow()}
	marksDone, stopMarks := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(marksDone)
		tick := time.NewTicker(time.Second)
		defer tick.Stop()
		for {
			select {
			case <-stopMarks:
				return
			case <-tick.C:
				cpuMarks = append(cpuMarks, cpuNow())
			}
		}
	}()
	timings := runOpenLoop(due, c.nproc, do)
	close(stopMarks)
	<-marksDone
	phaseA := 0.0
	var byKind [numOpKinds][]float64
	var queueMS []float64
	var missed, late, failedA int
	slices := make([][]float64, len(cpuMarks))
	for i, t := range timings {
		if t.Done.Seconds() > phaseA {
			phaseA = t.Done.Seconds()
		}
		ms := float64(t.latency().Nanoseconds()) / 1e6
		if k := int(t.Due / time.Second); k < len(slices) {
			slices[k] = append(slices[k], ms)
		}
		byKind[plan[i].kind] = append(byKind[plan[i].kind], ms)
		queueMS = append(queueMS, float64(t.queueWait().Nanoseconds())/1e6)
		if t.Err != nil {
			failedA++
			mismatch("phase A %s op failed: %v", opNames[plan[i].kind], t.Err)
		}
		if t.Err != nil || t.latency() > sz.limit {
			missed++
		}
		// Late means the generator alone spent a tenth of the latency
		// limit before the op was even sent.
		if t.queueWait() > sz.limit/10 {
			late++
		}
	}
	for k, lat := range slices {
		if len(lat) == 0 {
			continue
		}
		o.addLatencies(lat)
		if k+1 < len(cpuMarks) {
			o.cpuPerOp = append(o.cpuPerOp, float64((cpuMarks[k+1]-cpuMarks[k]).Microseconds())/1000/float64(len(lat)))
		}
	}
	if len(o.cpuPerOp) == 0 { // a phase shorter than one second (smoke)
		o.cpuPerOp = append(o.cpuPerOp, float64((cpuNow()-cpuMarks[0]).Microseconds())/1000/float64(len(timings)))
	}
	n := float64(len(timings))
	if v, s := verified.Load(), skipped.Load(); v < s {
		o.problemf("only %d of %d infer replies could be checked under one model", v, v+s)
	}
	infer := append(append([]float64(nil), byKind[opInfer]...), byKind[opInferBatch]...)
	o.layer["api.phase_a_ops_per_s"] = ratio(n-float64(failedA), phaseA)
	o.layer["api.feed_p95_ms"] = percentile(byKind[opFeed], 0.95)
	o.layer["api.infer_p95_ms"] = percentile(infer, 0.95)
	o.layer["api.slo_miss_frac"] = ratio(float64(missed), n)
	o.layer["client.feed.p99_ms"] = percentile(byKind[opFeed], 0.99)
	o.layer["client.infer.p99_ms"] = percentile(infer, 0.99)
	o.layer["client.queue_ms_p95"] = percentile(queueMS, 0.95)
	o.layer["client.gen_late_frac"] = ratio(float64(late), n)

	// Phase B: one connection bulk-loads examples into the first job.
	bulkIn := make([][]float64, sz.bulkCall)
	bulkOut := make([][]float64, sz.bulkCall)
	for k := range bulkIn {
		bulkIn[k] = pool.single[imageInputs][k%poolVariants]
		bulkOut[k] = labels[k%2]
	}
	var midB promSample
	if c.traced() {
		if midB, _, err = h.scrape(); err != nil {
			return nil, err
		}
	}
	// Each call is one slice of ops_per_s.
	calls, acked := 0, 0
	for acked < sz.bulk {
		span := c.tr.begin("op.bulk_feed", 0, 0)
		t0 := time.Now()
		got, err := h.cl.Feed(withParent(context.Background(), span, 0), ids[0], bulkIn, bulkOut)
		wall := time.Since(t0).Seconds()
		c.tr.end(span)
		calls++
		acked += len(got)
		if err != nil {
			o.failed++
			o.problemf("bulk feed call %d failed: %v", calls, err)
			break
		}
		o.rate = append(o.rate, float64(len(got))/wall)
	}
	o.ops = float64(acked)
	o.rssMiB = peakRSSMiB() // before the checks and phase C, whose footprint is api.recover_rss_mb
	probe.finish(o, n+float64(calls))
	o.attempted = int64(len(timings) + calls)
	o.failed += int64(failedA)

	var after promSample
	if c.traced() {
		var scrape time.Duration
		if after, scrape, err = h.scrape(); err != nil {
			return nil, err
		}
		o.layer["telemetry.scrape_ms"] = float64(scrape.Microseconds()) / 1000
	}

	// Phase C: quiesce, take the crash image before Close, recover copies.
	if err := h.svc.StopEngine(); err != nil {
		return nil, err
	}
	engineRunning = false
	if m, ok := h.svc.EngineMetrics(); ok {
		o.layer["engine.runs"] = float64(m.Completed)
		o.layer["engine.retries"] = float64(m.Released + m.Errors)
		o.layer["engine.utilization"] = m.Utilization
	}
	allIDs, err := h.cl.Jobs(context.Background())
	if err != nil {
		return nil, err
	}
	live, err := liveStatuses(h.svc, allIDs)
	if err != nil {
		return nil, err
	}
	ref, err := buildReference(c.seed, jobs, quotas)
	if err != nil {
		return nil, err
	}
	for _, id := range ids {
		ref.checkAgainst(o, live[id], false)
	}
	image, err := os.MkdirTemp(c.workdir, "image-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(image)
	imageBytes, err := copyDir(h.dir, image)
	if err != nil {
		return nil, err
	}
	var recoverS []float64
	var rec easeml.RecoveryInfo
	for i := 0; i < sz.recovers; i++ {
		var wall time.Duration
		wall, rec, err = recoverImage(c, o, image,
			easeml.ServiceConfig{GPUs: 24, Seed: serviceSeed(c.seed), Quotas: quotas}, live)
		if err != nil {
			return nil, fmt.Errorf("recovering the crash image: %w", err)
		}
		recoverS = append(recoverS, wall.Seconds())
	}
	if rec.Jobs != len(allIDs) {
		o.problemf("crash image recovered %d jobs, live service has %d", rec.Jobs, len(allIDs))
	}
	o.layer["api.recover_s"] = median(recoverS)
	o.layer["api.recover_rss_mb"] = peakRSSMiB()
	o.layer["api.image_mb"] = float64(imageBytes) / (1 << 20)
	o.layer["api.recover_events"] = float64(rec.WALEvents)

	if c.traced() {
		stageMetrics(o, after.delta(before), n+float64(calls))
		bulk := after.delta(midB)
		payload := float64(acked) * float64(imageInputs+2) * 8
		o.layer["storage.write_amp"] = ratio(bulk.get("easeml_wal_bytes_written_total"), payload)
		o.layer["storage.segment_rolls"] = after.get("easeml_wal_segments") - before.get("easeml_wal_segments")
		apiTraceMetrics(c, o, h)
	}
	return o, nil
}

// apiTraceMetrics turns the traced run's op → client → handler span chains
// into the http.* and client.* metrics.
func apiTraceMetrics(c *runCtx, o *outcome, h *httpService) {
	spans := c.tr.snapshot()
	o.layer["http.requests"] = float64(h.http.total())
	for _, kind := range opNames {
		o.layer["http."+kind+".handler_ms"] = percentile(durationsMS(spans, "http."+kind), 0.5)
		o.layer["client."+kind+".rtt_ms"] = percentile(durationsMS(spans, "client."+kind), 0.5)
	}
	if st := h.http.get("feed"); st.Count > 0 {
		o.layer["http.feed.req_bytes"] = float64(st.ReqBytes) / float64(st.Count)
	}
	// codec = what the caller waited for minus what the handler spent:
	// client-side JSON, HTTP framing and the loopback wire.
	byID := make(map[int32]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	var codec []float64
	for _, s := range spans {
		if !strings.HasPrefix(s.Name, "http.") {
			continue
		}
		op := byID[byID[s.Parent].Parent]
		if strings.HasPrefix(op.Name, "op.") && op.End > op.Start {
			codec = append(codec, float64((op.End-op.Start)-(s.End-s.Start))/1e6)
		}
	}
	o.layer["client.codec_ms"] = percentile(codec, 0.5)
}
