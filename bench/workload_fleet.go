package main

import (
	"context"
	"fmt"
	"time"

	"repro/easeml"
	"repro/internal/fleet"
)

// fleetSetup boots the durable fleet service and submits the jobs through
// internal/client, the way tenants would.
func fleetSetup(c *runCtx, jobs []jobSpec, quotas map[string]easeml.TenantQuota) (h *httpService, ids []string, candidates int64, err error) {
	h, err = openHTTPService(c, easeml.ServiceConfig{
		GPUs: 24, Seed: serviceSeed(c.seed), Quotas: quotas, Fleet: true,
	}, true, true)
	if err != nil {
		return nil, nil, 0, err
	}
	ids = make([]string, len(jobs))
	for i, j := range jobs {
		resp, err := h.cl.Submit(context.Background(), j.Tenant, j.Program)
		if err != nil {
			h.close()
			return nil, nil, 0, err
		}
		ids[i] = resp.ID
		candidates += int64(len(resp.Candidates))
	}
	return h, ids, candidates, nil
}

// runDrainFleet is the shipping train path: the same jobs as drain_engine,
// but leased over the fleet protocol (JSON over loopback TCP) by one agent
// with nproc devices, every settle paying a WAL commit in the 2 ms window.
// Timed from Agent.Run until the time budget is spent or the jobs run dry;
// one op is one settled lease.
func runDrainFleet(c *runCtx) (*outcome, error) {
	o := newOutcome()
	jobs, quotas := jobMix(c.seed, drainJobs(c.smoke))

	var h *httpService
	var ids []string
	var total int64 // candidates over all jobs: the leases a full drain settles
	var err error
	for i := 0; i < setupRepeats(c); i++ {
		if h != nil {
			h.close()
		}
		t0 := time.Now()
		if h, ids, total, err = fleetSetup(c, jobs, quotas); err != nil {
			return nil, err
		}
		o.setupS = append(o.setupS, time.Since(t0).Seconds())
	}
	defer h.close()

	cfg := fleet.AgentConfig{Coordinator: h.url, Name: "bench-agent", Devices: c.nproc, HTTPClient: h.hc}
	if c.traced() {
		cfg.Executor = &tracingExecutor{next: fleet.NewSimExecutor(serviceSeed(c.seed)), tr: c.tr, cycles: h.cycle}
	}
	agent, err := fleet.NewAgent(cfg)
	if err != nil {
		return nil, err
	}

	var before promSample
	if c.traced() {
		if before, _, err = h.scrape(); err != nil {
			return nil, err
		}
	}
	sel0 := selectionTotals{}
	sel0.add(h.svc.SelectionMetrics())
	probe := startProbe()
	ctx, cancel := context.WithCancel(context.Background())
	agentDone := make(chan error, 1)
	// A lease settles every ~3 ms here: 16 of them make a ~50 ms latency
	// sample, a second of them one slice.
	sampler := startSampler(o, agent.Completed, 16, time.Second, probe)
	start := time.Now()
	go func() { agentDone <- agent.Run(ctx) }()
	tick := time.NewTicker(time.Millisecond)
	for range tick.C {
		if agent.Completed() >= total || time.Since(start) >= c.budget() {
			break
		}
	}
	tick.Stop()
	o.ops = float64(agent.Completed())
	sampler.finish()
	cancel()
	if err := <-agentDone; err != nil {
		return nil, fmt.Errorf("agent: %w", err)
	}
	o.rssMiB = peakRSSMiB()
	probe.finish(o, o.ops)
	o.attempted = agent.Completed() + agent.Failed()
	o.failed = agent.Failed()
	sel1 := selectionTotals{}
	sel1.add(h.svc.SelectionMetrics())
	sel1.sub(sel0).into(o)

	// Output checks on the quiesced service: what was trained agrees with
	// the serialized service model for model, nothing trained twice, the
	// agent's tally matches the store, and the crash image recovers to the
	// same statuses.
	ref, err := buildReference(c.seed, jobs, quotas)
	if err != nil {
		return nil, err
	}
	live, err := liveStatuses(h.svc, ids)
	if err != nil {
		return nil, err
	}
	trained := 0
	drained := agent.Completed() == total && total == int64(ref.total)
	for _, st := range live {
		ref.checkAgainst(o, st, drained)
		trained += st.Trained
	}
	if int64(trained) != agent.Completed() {
		o.problemf("agent reports %d completed leases, the store holds %d models", agent.Completed(), trained)
	}
	recoverWall, rec, err := recoverImage(c, o, h.dir,
		easeml.ServiceConfig{GPUs: 24, Seed: serviceSeed(c.seed), Quotas: quotas}, live)
	if err != nil {
		return nil, fmt.Errorf("recovering the crash image: %w", err)
	}
	if rec.Jobs != len(jobs) || rec.Models != trained {
		o.problemf("crash image recovered %d jobs / %d models, live service has %d / %d", rec.Jobs, rec.Models, len(jobs), trained)
	}
	o.layer["storage.drain_recover_ms"] = float64(recoverWall.Microseconds()) / 1000

	if c.traced() {
		after, scrape, err := h.scrape()
		if err != nil {
			return nil, err
		}
		o.layer["telemetry.scrape_ms"] = float64(scrape.Microseconds()) / 1000
		stageMetrics(o, after.delta(before), o.ops)
		fleetTraceMetrics(c, o, h)
	}
	return o, nil
}

// fleetTraceMetrics turns the transport, handler and executor observations
// of the traced run into the fleet.* and http.fleet_* metrics, including the
// lease-cycle decomposition.
func fleetTraceMetrics(c *runCtx, o *outcome, h *httpService) {
	spans := c.tr.snapshot()
	// The product's own request counter does not cover /fleet/*; the
	// harness's handler middleware sees every request.
	o.layer["http.requests"] = float64(h.http.total())
	o.layer["fleet.lease_rtt_ms_p50"] = percentile(durationsMS(spans, "client.fleet_lease"), 0.5)
	o.layer["fleet.lease_rtt_ms_p95"] = percentile(durationsMS(spans, "client.fleet_lease"), 0.95)
	o.layer["fleet.complete_rtt_ms_p50"] = percentile(durationsMS(spans, "client.fleet_complete"), 0.5)
	if hb := durationsMS(spans, "client.fleet_heartbeat"); len(hb) > 0 {
		o.layer["fleet.heartbeat_rtt_ms_p50"] = percentile(hb, 0.5)
	}
	o.layer["fleet.execute_ms_p50"] = percentile(durationsMS(spans, "fleet.execute"), 0.5)
	o.layer["http.fleet_lease.handler_ms"] = percentile(durationsMS(spans, "http.fleet_lease"), 0.5)
	o.layer["http.fleet_complete.handler_ms"] = percentile(durationsMS(spans, "http.fleet_complete"), 0.5)
	if st := h.http.get("fleet_lease"); st.Count > 0 {
		o.layer["http.fleet_lease.resp_bytes"] = float64(st.RespBytes) / float64(st.Count)
	}

	var cycle, leaseRTT, exec, completeRTT []float64
	h.cycle.mu.Lock()
	for _, lc := range h.cycle.byID {
		if lc.CompleteAcked.IsZero() || lc.ExecEnd.IsZero() {
			continue
		}
		cycle = append(cycle, lc.CompleteAcked.Sub(lc.LeaseSent).Seconds()*1000)
		leaseRTT = append(leaseRTT, lc.LeaseDone.Sub(lc.LeaseSent).Seconds()*1000)
		exec = append(exec, lc.ExecEnd.Sub(lc.ExecStart).Seconds()*1000)
		completeRTT = append(completeRTT, lc.CompleteAcked.Sub(lc.CompleteSent).Seconds()*1000)
	}
	h.cycle.mu.Unlock()
	if len(cycle) == 0 {
		return
	}
	total := sum(cycle)
	residual := total - sum(leaseRTT) - sum(exec) - sum(completeRTT)
	o.layer["fleet.cycle_ms_p50"] = percentile(cycle, 0.5)
	o.layer["fleet.cycle_residual_frac"] = residual / total
	n := float64(len(cycle))
	o.notes = append(o.notes, fmt.Sprintf(
		"lease cycle over %d leases: mean %.3f ms = lease rtt %.3f + execute %.3f + complete rtt %.3f + inside agent %.3f (%.1f%% of cycle time)",
		len(cycle), total/n, sum(leaseRTT)/n, sum(exec)/n, sum(completeRTT)/n, residual/n, 100*residual/total))
	if rate := median(o.rate); rate > 0 {
		// With every device slot busy, leases/s would be nproc ÷ cycle; what
		// is missing is the time a slot waits between one lease's ack and
		// the next lease's poll.
		o.notes = append(o.notes, fmt.Sprintf(
			"%d slots at %.1f leases/s are %.3f ms per lease and slot: %.3f ms of cycle + %.3f ms between cycles",
			c.nproc, rate, 1000*float64(c.nproc)/rate, total/n, 1000*float64(c.nproc)/rate-total/n))
	}
}
