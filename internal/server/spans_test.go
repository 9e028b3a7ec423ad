package server

import (
	"maps"
	"testing"

	"repro/internal/telemetry"
)

// Every lease of a serialized RunRound records the same spans — the lease
// root, its selection stage, its Grant's lock wait and the settle, plus the
// WAL append when the scheduler is durable — and nothing else lands in the
// recorder: the count that pins that the spans are all still recorded.
func TestSpansPerLease(t *testing.T) {
	recorded := telemetry.Default().Counter("easeml_trace_spans_total", "")
	perLease := map[string]int{"lease": 1, "pick_select": 1, "pick_lock_wait": 1, "settle": 1}

	check := func(t *testing.T, sc *Scheduler, want map[string]int) int {
		t.Helper()
		job, err := sc.Submit("span-count", recoveryTSProgram)
		if err != nil {
			t.Fatal(err)
		}
		n, err := sc.RunRounds(len(job.Candidates))
		if err != nil || n != len(job.Candidates) {
			t.Fatalf("RunRounds: %d of %d (%v)", n, len(job.Candidates), err)
		}
		picks := sc.Decisions(DecisionFilter{Job: job.ID, Kind: DecisionPick})
		if len(picks) != n {
			t.Fatalf("%d pick decisions for %d leases", len(picks), n)
		}
		for _, p := range picks {
			spans, _ := telemetry.DefaultRecorder().Trace(p.Trace)
			ops := map[string]int{}
			for _, sd := range spans {
				ops[sd.Op]++
			}
			if !maps.Equal(ops, want) {
				t.Errorf("lease trace %s recorded %v, want %v", p.Trace, ops, want)
			}
		}
		return n
	}

	t.Run("memory", func(t *testing.T) {
		before := recorded.Value()
		n := check(t, newTestScheduler(t), perLease)
		if got := recorded.Value() - before; got != uint64(4*n) {
			t.Errorf("%d leases recorded %d spans, want %d", n, got, 4*n)
		}
	})
	t.Run("durable", func(t *testing.T) {
		sc, log := newDurableScheduler(t, t.TempDir())
		defer log.Close()
		want := maps.Clone(perLease)
		want["wal_append"] = 1
		check(t, sc, want)
	})
}
