package main

import (
	"context"
	"time"

	"repro/easeml"
	"repro/internal/server"
)

// drainJobs is the job count of both drain workloads.
func drainJobs(smoke bool) int {
	if smoke {
		return 12
	}
	return 256
}

// runDrainEngine drains fresh in-memory services back to back through the
// in-process engine: pick path plus engine dispatch are the whole cost. One
// op is one settled lease; only the DrainEngine calls are on the clock, each
// service's boot and submissions are a set-up sample.
func runDrainEngine(c *runCtx) (*outcome, error) {
	o := newOutcome()
	jobs, quotas := jobMix(c.seed, drainJobs(c.smoke))
	cfg := easeml.ServiceConfig{Workers: c.nproc, GPUs: 24, Seed: serviceSeed(c.seed), Quotas: quotas}

	var before promSample
	if c.traced() {
		before, _ = scrapeInProcess()
	}
	probe := startProbe()
	var timed time.Duration
	var util, utilN float64
	var sel0, sel1 selectionTotals
	var first map[string]server.Status // the first drain's results; later drains must repeat them
	for drains := 0; drains == 0 || timed < c.budget(); drains++ {
		t0 := time.Now()
		svc, err := easeml.OpenService(cfg)
		if err != nil {
			return nil, err
		}
		ids := make([]string, len(jobs))
		for i, j := range jobs {
			job, err := svc.Submit(j.Tenant, j.Program)
			if err != nil {
				return nil, err
			}
			ids[i] = job.Name
		}
		o.setupS = append(o.setupS, time.Since(t0).Seconds())
		sel0.add(svc.SelectionMetrics())

		// Each drain is one slice.
		sampler := startSampler(o, func() int64 {
			m, _ := svc.EngineMetrics()
			return m.Completed
		}, engineChunk(c.smoke), 0, probe)
		id := c.tr.begin("engine.drain", 0, uint64(drains))
		sum, err := svc.DrainEngine(context.Background())
		c.tr.end(id)
		sampler.finish()
		if err != nil {
			return nil, err
		}
		timed += sum.Wall
		o.ops += float64(sum.Rounds)
		util += sum.Utilization
		utilN++
		sel1.add(svc.SelectionMetrics())
		if m, ok := svc.EngineMetrics(); ok {
			o.layer["engine.runs"] += float64(m.Completed)
			o.layer["engine.retries"] += float64(m.Released + m.Errors)
			o.failed += m.Errors + m.Abandoned
		}
		// Every drain runs the same jobs on the same seed, so it must end
		// where the first one ended; the first is checked against the
		// serialized service once the footprint has been read.
		live, err := liveStatuses(svc, ids)
		if err != nil {
			return nil, err
		}
		if first == nil {
			first = live
		}
		for id, st := range live {
			if !sameModels(st, first[id]) {
				o.problemf("drain %d: %s ended with other models than in drain 0", drains, id)
			}
		}
		if err := svc.Close(); err != nil {
			return nil, err
		}
	}
	o.attempted = int64(o.ops)
	o.rssMiB = peakRSSMiB()
	probe.finish(o, o.ops)

	// Output checks, after the footprint was read: the drains trained every
	// candidate exactly once and ended where the serialized service ends.
	ref, err := buildReference(c.seed, jobs, quotas)
	if err != nil {
		return nil, err
	}
	if drains := float64(len(o.rate)); o.ops != drains*float64(ref.total) {
		o.problemf("%v drains settled %v leases, the jobs have %d candidates", drains, o.ops, ref.total)
	}
	for _, st := range first {
		ref.checkAgainst(o, st, true)
	}
	o.layer["engine.utilization"] = ratio(util, utilN)
	sel1.sub(sel0).into(o)
	if c.traced() {
		after, scrape := scrapeInProcess()
		o.layer["telemetry.scrape_ms"] = float64(scrape.Microseconds()) / 1000
		stageMetrics(o, after.delta(before), o.ops)
	}
	return o, nil
}

// engineChunk is how many settled leases make one latency sample of
// drain_engine: a lease settles every ~80 µs, so 256 of them is a ~20 ms
// sample and a drain holds ~20. The smoke drain is much shorter.
func engineChunk(smoke bool) int64 {
	if smoke {
		return 32
	}
	return 256
}

// sameModels reports whether two statuses of one job hold the same trained
// models with the same accuracies and the same best (completion order, and
// with it the round numbers, may differ between concurrent drains).
func sameModels(a, b server.Status) bool {
	if len(a.Models) != len(b.Models) || a.Best == nil || b.Best == nil ||
		a.Best.Name != b.Best.Name || a.Best.Accuracy != b.Best.Accuracy {
		return false
	}
	acc := make(map[string]float64, len(b.Models))
	for _, m := range b.Models {
		acc[m.Name] = m.Accuracy
	}
	for _, m := range a.Models {
		if v, ok := acc[m.Name]; !ok || v != m.Accuracy {
			return false
		}
	}
	return true
}
