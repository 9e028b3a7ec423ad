package main

import (
	"fmt"
	"io"
	"strings"
)

// writeMetricTables renders the metric catalog as the two markdown tables of
// README.md, with the medians of a result file filled in per workload (nil
// leaves the value columns empty). Keeping the tables generated means a name,
// unit or bound is only ever typed once, in metrics.go.
func writeMetricTables(w io.Writer, res *resultFile) {
	value := func(workload, metric string, layer bool) string {
		if res == nil || res.Workloads[workload] == nil {
			return ""
		}
		xs := res.Workloads[workload].E2E[metric]
		if layer {
			xs = res.Workloads[workload].Layer[metric]
		}
		if len(xs) == 0 {
			return ""
		}
		return fmt.Sprintf("%.4g", median(xs))
	}
	names := workloadNames()

	fmt.Fprintf(w, "| metric | unit | better | bound | definition | %s |\n", strings.Join(names, " | "))
	fmt.Fprintf(w, "|---|---|---|---|---|%s\n", strings.Repeat("---|", len(names)))
	for _, m := range e2eMetrics {
		fmt.Fprintf(w, "| `%s` | %s | %s | %.0f %% | %s |", m.Name, m.Unit, m.Better, 100*m.Bound, m.def)
		for _, wl := range names {
			fmt.Fprintf(w, " %s |", value(wl, m.Name, false))
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w)

	fmt.Fprintf(w, "| metric | unit | src | should move → on workload | %s |\n", strings.Join(names, " | "))
	fmt.Fprintf(w, "|---|---|---|---|%s\n", strings.Repeat("---|", len(names)))
	for _, m := range layerMetrics {
		fmt.Fprintf(w, "| `%s` | %s | %s | %s |", m.Name, m.Unit, m.src, m.moves)
		for _, wl := range names {
			fmt.Fprintf(w, " %s |", value(wl, m.Name, true))
		}
		fmt.Fprintln(w)
	}
}
