// Command qualitygate is CI's quality gate: it runs every row of
// internal/quality (the paper's accuracy-loss metric through the service's
// own decision loop) and compares each figure with the committed pin in
// BENCH_quality.json at the repository root, bit for bit. The harness is
// deterministic, so any changed bit means a pick changed somewhere.
//
// Usage:
//
//	go run ./tools/qualitygate                 # gate against BENCH_quality.json
//	go run ./tools/qualitygate -update         # re-pin from this tree
//
// A change that means to keep every pick passes with no edit. One that
// means to change picks re-pins with -update and states the measured
// reason in CHANGES.md: the per-configuration means this command prints,
// before and after.
//
// The pin file holds one entry per row; each figure is an exact hex float
// (strconv's 'x' format), so a round trip through JSON keeps every bit.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"

	"repro/internal/quality"
)

// pinFile is BENCH_quality.json.
type pinFile struct {
	Note string `json:"note"`
	Rows []pin  `json:"rows"`
}

// pin is one row's figures as hex floats.
type pin struct {
	Row          string `json:"row"`
	AUC          string `json:"auc"`
	TimeToTarget string `json:"time_to_target"`
	Final        string `json:"final"`
	TimeToFinal  string `json:"time_to_final"`
}

const note = "Pinned figures of internal/quality (accuracy loss vs. device time through " +
	"the scheduler), exact hex floats. Gate: go run ./tools/qualitygate. A change " +
	"that moves a pick re-pins with -update and states the measured reason in CHANGES.md."

func main() {
	path := flag.String("baseline", "BENCH_quality.json", "committed pin file")
	update := flag.Bool("update", false, "rewrite the pin file from this tree instead of gating")
	flag.Parse()

	got, err := runAll(quality.Rows())
	if err != nil {
		fmt.Fprintf(os.Stderr, "qualitygate: %v\n", err)
		os.Exit(2)
	}
	if *update {
		data, err := json.MarshalIndent(pinFile{Note: note, Rows: got}, "", "  ")
		if err == nil {
			err = os.WriteFile(*path, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "qualitygate: writing pins: %v\n", err)
			os.Exit(2)
		}
		summarize(os.Stdout, got)
		return
	}
	data, err := os.ReadFile(*path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "qualitygate: reading pins: %v\n", err)
		os.Exit(2)
	}
	var base pinFile
	if err := json.Unmarshal(data, &base); err != nil {
		fmt.Fprintf(os.Stderr, "qualitygate: parsing pins: %v\n", err)
		os.Exit(2)
	}
	os.Exit(gate(base.Rows, got, os.Stdout, os.Stderr))
}

// runAll runs the rows in order and renders their figures as pins.
func runAll(rows []quality.Row) ([]pin, error) {
	out := make([]pin, len(rows))
	for i, r := range rows {
		res, err := quality.Run(r)
		if err != nil {
			return nil, err
		}
		out[i] = pin{Row: r.Key(), AUC: hex(res.AUC), TimeToTarget: hex(res.TimeToTarget),
			Final: hex(res.Final), TimeToFinal: hex(res.TimeToFinal)}
	}
	return out, nil
}

func hex(v float64) string { return strconv.FormatFloat(v, 'x', -1, 64) }

// gate compares got with the pins figure by figure, writing the summary to
// out and every difference to errOut, and returns the exit status: 0 when
// every pinned bit holds and every row is pinned, 1 otherwise.
func gate(pins, got []pin, out, errOut io.Writer) int {
	want := make(map[string]pin, len(pins))
	for _, p := range pins {
		want[p.Row] = p
	}
	failed := false
	for _, g := range got {
		w, ok := want[g.Row]
		if !ok {
			fmt.Fprintf(errOut, "qualitygate: FAIL %s: not pinned\n", g.Row)
			failed = true
			continue
		}
		delete(want, g.Row)
		for _, f := range [...]struct{ name, want, got string }{
			{"auc", w.AUC, g.AUC},
			{"time_to_target", w.TimeToTarget, g.TimeToTarget},
			{"final", w.Final, g.Final},
			{"time_to_final", w.TimeToFinal, g.TimeToFinal},
		} {
			if f.want != f.got {
				fmt.Fprintf(errOut, "qualitygate: FAIL %s %s: pinned %s (%.6g), got %s (%.6g)\n",
					g.Row, f.name, f.want, decimal(f.want), f.got, decimal(f.got))
				failed = true
			}
		}
	}
	for _, p := range pins {
		if _, ok := want[p.Row]; ok {
			fmt.Fprintf(errOut, "qualitygate: FAIL %s: pinned but not run\n", p.Row)
			failed = true
		}
	}
	summarize(out, got)
	if failed {
		fmt.Fprintln(errOut, "qualitygate: picks changed; re-pin with -update only if that is the change's intent")
		return 1
	}
	fmt.Fprintf(out, "qualitygate: ok, %d rows hold every pinned bit\n", len(got))
	return 0
}

// summarize prints each configuration's means over its seeds in decimal.
func summarize(out io.Writer, rows []pin) {
	var configs []string
	sums := map[string]*[5]float64{}
	for _, p := range rows {
		config, _, _ := strings.Cut(p.Row, "/seed=")
		s, ok := sums[config]
		if !ok {
			s = new([5]float64)
			sums[config] = s
			configs = append(configs, config)
		}
		s[0] += decimal(p.AUC)
		s[1] += decimal(p.TimeToTarget)
		s[2] += decimal(p.Final)
		s[3] += decimal(p.TimeToFinal)
		s[4]++
	}
	fmt.Fprintf(out, "%-20s %8s %14s %8s %14s  (means over seeds)\n", "", "auc", "time_to_0.01", "final", "time_to_final")
	for _, config := range configs {
		s := sums[config]
		fmt.Fprintf(out, "%-20s %8.4f %14.3f %8.4f %14.3f\n", config, s[0]/s[4], s[1]/s[4], s[2]/s[4], s[3]/s[4])
	}
}

// decimal parses a pinned figure (NaN when it does not parse).
func decimal(s string) float64 {
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return math.NaN()
	}
	return v
}
