package main

import (
	"repro/internal/server"
)

// selectionTotals accumulates Service.SelectionMetrics() reads across the
// services a workload boots, so before/after differences cover all of them.
type selectionTotals struct {
	picks, rescored, built, reused float64
	selHit, selMiss, gpHit, gpMiss float64
}

func (t *selectionTotals) add(s server.SelectionStats) {
	t.picks += float64(s.Picks)
	t.rescored += float64(s.JobsRescored)
	t.built += float64(s.ShadowsBuilt)
	t.reused += float64(s.ShadowsReused)
	t.selHit += float64(s.BanditCache.Select.Hits)
	t.selMiss += float64(s.BanditCache.Select.Misses)
	t.gpHit += float64(s.BanditCache.Posterior.Hits)
	t.gpMiss += float64(s.BanditCache.Posterior.Misses)
}

func (t selectionTotals) sub(b selectionTotals) selectionTotals {
	return selectionTotals{
		picks: t.picks - b.picks, rescored: t.rescored - b.rescored,
		built: t.built - b.built, reused: t.reused - b.reused,
		selHit: t.selHit - b.selHit, selMiss: t.selMiss - b.selMiss,
		gpHit: t.gpHit - b.gpHit, gpMiss: t.gpMiss - b.gpMiss,
	}
}

// into writes the selection-index ratios of a timed phase.
func (t selectionTotals) into(o *outcome) {
	o.layer["server.sel.rescored_per_pick"] = ratio(t.rescored, t.picks)
	o.layer["server.sel.shadow_reuse_ratio"] = ratio(t.reused, t.built+t.reused)
	o.layer["bandit.cache_hit_ratio"] = ratio(t.selHit, t.selHit+t.selMiss)
	o.layer["gp.cache_hit_ratio"] = ratio(t.gpHit, t.gpHit+t.gpMiss)
}

// stageMetrics derives the source-(c) per-layer metrics from the difference
// of two scrapes of the product's own registry around the timed phase(s).
// ops is the workload's op count, for the per-op ratios.
func stageMetrics(o *outcome, d promSample, ops float64) {
	for metric, hist := range map[string]string{
		"server.stage.select_ms":       "easeml_pick_stage_select_seconds_sum",
		"server.stage.lock_wait_ms":    "easeml_pick_stage_lock_wait_seconds_sum",
		"server.stage.index_repair_ms": "easeml_pick_stage_index_repair_seconds_sum",
		"server.stage.hallucinate_ms":  "easeml_pick_stage_hallucinate_seconds_sum",
		"server.stage.wal_append_ms":   "easeml_pick_stage_wal_append_seconds_sum",
	} {
		o.layer[metric] = d.get(hist) * 1000
	}

	appends := d.sumName("easeml_wal_appends_total")
	o.layer["storage.wal_events"] = appends
	o.layer["storage.bytes_per_event"] = ratio(d.get("easeml_wal_bytes_written_total"), appends)
	o.layer["storage.fsyncs_per_event"] = ratio(d.get("easeml_wal_fsyncs_total"), appends)
	o.layer["storage.batch_mean"] = ratio(d.get("easeml_wal_group_commit_batch_size_sum"),
		d.get("easeml_wal_group_commit_batch_size_count"))

	hits := d.sumName("easeml_plan_cache_events_total", `cache="program"`, `event="hit"`)
	miss := d.sumName("easeml_plan_cache_events_total", `cache="program"`, `event="miss"`)
	o.layer["dsl.plan_hit_ratio"] = ratio(hits, hits+miss)
	o.layer["admission.rejected"] = d.sumName("easeml_admission_verdicts_total", `verdict="rejected"`)
	o.layer["telemetry.spans_per_op"] = ratio(d.get("easeml_trace_spans_total"), ops)
	o.layer["http.requests"] = d.sumName("easeml_http_requests_total")

	polls := d.get("easeml_fleet_lease_polls_total")
	o.layer["fleet.polls_per_grant"] = ratio(polls, d.get("easeml_fleet_leases_granted_total"))
	o.layer["fleet.spec_hit_ratio"] = ratio(d.get("easeml_speculative_grants_total"),
		d.get("easeml_speculative_proposals_total"))
	o.layer["fleet.spec_stale"] = d.sumName("easeml_speculative_rejections_total")
	o.layer["fleet.posteriors_per_poll"] = ratio(d.get("easeml_speculative_posteriors_total"), polls)
}
