package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"time"
)

// Verdicts of one (metric, workload) row.
const (
	verdictOK         = "ok"         // B's median is within the bound of A's
	verdictWorse      = "worse"      // B's median is worse than A's by more than the bound
	verdictUnresolved = "unresolved" // the run-to-run spread is wider than the bound
	verdictGain       = "gain"       // pairs mode: B wins ≥ 9/10 pairs and by more than A's own spread
)

// compareRow is one (metric, workload) line of a comparison.
type compareRow struct {
	Workload, Metric, Unit string
	Better                 string
	A, B                   [3]float64 // q1, median, q3
	NA, NB                 int
	Ratio                  float64 // B median ÷ A median (A is the base)
	Verdict                string
}

// worseBy is how much worse b is than a as a share of a (negative = better).
func worseBy(better string, a, b float64) float64 {
	if a == 0 {
		return math.NaN()
	}
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// judge applies the regression rule of the benchmark: against the metric's
// bound, a row whose spread on either side exceeds the bound cannot be
// called unchanged or worse.
func judge(m e2eSpec, as, bs []float64) compareRow {
	row := compareRow{Metric: m.Name, Unit: m.Unit, Better: m.Better, NA: len(as), NB: len(bs)}
	row.A[0], row.A[1], row.A[2] = quartiles(as)
	row.B[0], row.B[1], row.B[2] = quartiles(bs)
	row.Ratio = ratio(row.B[1], row.A[1])
	switch w := worseBy(m.Better, row.A[1], row.B[1]); {
	case spread(as) > m.Bound || spread(bs) > m.Bound:
		row.Verdict = verdictUnresolved
	case w > m.Bound:
		row.Verdict = verdictWorse
	default:
		row.Verdict = verdictOK
	}
	return row
}

// compareFiles judges every end-to-end (metric, workload) pair of two result
// files, A being the base.
func compareFiles(a, b *resultFile) []compareRow {
	var rows []compareRow
	for _, w := range workloads {
		wa, wb := a.Workloads[w.Name], b.Workloads[w.Name]
		if wa == nil || wb == nil {
			continue
		}
		for _, m := range e2eMetrics {
			row := judge(m, wa.E2E[m.Name], wb.E2E[m.Name])
			row.Workload = w.Name
			rows = append(rows, row)
		}
	}
	return rows
}

func printRows(w io.Writer, rows []compareRow) (worse, unresolved int) {
	fmt.Fprintf(w, "%-13s %-15s %-5s %36s %36s %9s  %s\n", "workload", "metric", "unit",
		"A median [q1, q3] n", "B median [q1, q3] n", "B÷A", "verdict")
	for _, r := range rows {
		fmt.Fprintf(w, "%-13s %-15s %-5s %36s %36s %9.4f  %s\n", r.Workload, r.Metric, r.Unit,
			fmt.Sprintf("%.5g [%.5g, %.5g] %d", r.A[1], r.A[0], r.A[2], r.NA),
			fmt.Sprintf("%.5g [%.5g, %.5g] %d", r.B[1], r.B[0], r.B[2], r.NB), r.Ratio, r.Verdict)
		switch r.Verdict {
		case verdictWorse:
			worse++
		case verdictUnresolved:
			unresolved++
		}
	}
	return worse, unresolved
}

func loadResults(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// compareMain is `bench compare`: two result files, or with -pairs two built
// trees run alternately. Exit status 1 means some row is worse or
// unresolved.
func compareMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	pairs := fs.Int("pairs", 0, "alternate two trees this many times per workload (at least 10) instead of reading files")
	seconds := fs.Float64("seconds", 10, "pairs mode: timed phase per run")
	seed := fs.Int64("seed", 1, "pairs mode: seed of the first pair (pair i uses seed+i on both sides)")
	smoke := fs.Bool("smoke", false, "pairs mode: tiny sizes")
	if err := fs.Parse(args); err != nil || fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: bench compare A.json B.json | bench compare -pairs N treeA treeB")
		return 2
	}
	var a, b *resultFile
	var err error
	if *pairs > 0 {
		if *pairs < 10 && !*smoke {
			fmt.Fprintln(stderr, "bench compare: a claim needs at least 10 pairs")
			return 2
		}
		a, b, err = runPairs(fs.Arg(0), fs.Arg(1), *pairs, runOptions{seed: *seed, seconds: *seconds, smoke: *smoke}, stdout)
	} else {
		if a, err = loadResults(fs.Arg(0)); err == nil {
			b, err = loadResults(fs.Arg(1))
		}
	}
	if err != nil {
		fmt.Fprintf(stderr, "bench compare: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "A: %s dirty=%v %s (%s, %d cpus)\nB: %s dirty=%v %s (%s, %d cpus)\n",
		a.Env.Commit, a.Env.Dirty, a.Env.TreeHash, a.Env.GoVersion, a.Env.NProc,
		b.Env.Commit, b.Env.Dirty, b.Env.TreeHash, b.Env.GoVersion, b.Env.NProc)
	rows := compareFiles(a, b)
	if *pairs > 0 {
		markGains(rows, a, b)
	}
	worse, unresolved := printRows(stdout, rows)
	fmt.Fprintf(stdout, "%d rows: %d worse, %d unresolved\n", len(rows), worse, unresolved)
	if worse+unresolved > 0 {
		return 1
	}
	return 0
}

// markGains applies the paired-run rule for claiming a gain: B wins at least
// nine tenths of the pairs (ties count for neither side) and the medians
// differ by more than A's own inter-quartile distance. Sample i of A and
// sample i of B are one pair.
func markGains(rows []compareRow, a, b *resultFile) {
	for i := range rows {
		r := &rows[i]
		if r.Verdict != verdictOK {
			continue
		}
		as, bs := a.Workloads[r.Workload].E2E[r.Metric], b.Workloads[r.Workload].E2E[r.Metric]
		wins, n := 0, len(as)
		if len(bs) < n {
			n = len(bs)
		}
		for k := 0; k < n; k++ {
			if worseBy(r.Better, as[k], bs[k]) < 0 {
				wins++
			}
		}
		if n > 0 && float64(wins) >= 0.9*float64(n) && math.Abs(r.B[1]-r.A[1]) > r.A[2]-r.A[0] {
			r.Verdict = verdictGain
		}
	}
}

// runPairs builds the bench of two source trees and alternates them: pair i
// runs both sides with the same seed, the side that goes first alternating.
func runPairs(treeA, treeB string, pairs int, opt runOptions, log io.Writer) (*resultFile, *resultFile, error) {
	type side struct {
		tree, bin string
		file      *resultFile
	}
	sides := [2]*side{{tree: treeA}, {tree: treeB}}
	for _, s := range sides {
		abs, err := filepath.Abs(s.tree)
		if err != nil {
			return nil, nil, err
		}
		s.tree, s.bin = abs, filepath.Join(abs, ".bench_build", "bench-pairs")
		build := exec.Command("go", "build", "-o", s.bin, "./bench")
		build.Dir = s.tree
		if out, err := build.CombinedOutput(); err != nil {
			return nil, nil, fmt.Errorf("building %s: %v\n%s", s.tree, err, out)
		}
		s.file = &resultFile{Env: readEnvironment(), Taken: time.Now().UTC().Format(time.RFC3339),
			Seed: opt.seed, Seconds: opt.seconds, Smoke: opt.smoke, Workloads: map[string]*workloadSamples{}}
		s.file.Env.Commit, s.file.Env.Dirty, s.file.Env.TreeHash = "tree:"+s.tree, false, ""
	}
	opt.out = filepath.Join(".bench_build", "pairs-out")
	for _, w := range workloads {
		for _, s := range sides {
			s.file.Workloads[w.Name] = &workloadSamples{Correct: true, E2E: map[string][]float64{}, Layer: map[string][]float64{}}
		}
		for i := 0; i < pairs; i++ {
			run := opt
			run.workload, run.seed = w.Name, opt.seed+int64(i)
			order := [2]int{i % 2, 1 - i%2}
			for _, k := range order {
				res, err := runChild(sides[k].bin, sides[k].tree, run, nil)
				if err != nil {
					return nil, nil, err
				}
				sides[k].file.Workloads[w.Name].addE2E(res)
			}
			fmt.Fprintf(log, "%s pair %d/%d done\n", w.Name, i+1, pairs)
		}
	}
	return sides[0].file, sides[1].file, nil
}
