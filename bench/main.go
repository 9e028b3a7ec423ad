// Command bench is the repository's one benchmark: four workloads, the
// end-to-end numbers a user of the system feels, and every layer timed from
// outside. See README.md in this directory.
//
//	bench                       run every workload untraced and traced, print the report
//	bench --workload W --seed N --seconds S --trace 0|1
//	                            one run; the last stdout line is the JSON result
//	bench compare A.json B.json judge two result files against the bounds
//	bench compare -pairs N treeA treeB
//	                            alternate two built trees, N pairs per workload
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"math"
	"os"
	"path/filepath"
	"runtime"
)

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is the JSON object a single run prints as its last line.
type runResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runOptions are the flags of a single run.
type runOptions struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	smoke    bool
	out      string
}

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

func realMain(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return compareMain(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var opt runOptions
	var trace, reps int
	fs.StringVar(&opt.workload, "workload", "", "run one workload (default: the whole suite)")
	fs.Int64Var(&opt.seed, "seed", 1, "seed every generated input derives from")
	fs.Float64Var(&opt.seconds, "seconds", 10, "length of the timed phase")
	fs.IntVar(&trace, "trace", 0, "1 = traced run: harness spans on, per-layer metrics reported")
	fs.BoolVar(&opt.smoke, "smoke", false, "tiny sizes: every code path and check, no meaningful numbers")
	fs.StringVar(&opt.out, "out", filepath.Join("bench", "out"), "directory for traces and result files")
	fs.IntVar(&reps, "reps", 3, "suite mode: untraced repetitions per workload")
	printSpec := fs.Bool("print-benchmark-json", false, "print BENCHMARK.json as the metric catalog defines it and exit")
	printTables := fs.Bool("print-metric-tables", false, "print README's metric tables, filled from the result file given as argument, and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *printSpec {
		fmt.Fprintln(stdout, string(benchmarkJSON()))
		return 0
	}
	if *printTables {
		var res *resultFile
		if fs.NArg() > 0 {
			var err error
			if res, err = loadResults(fs.Arg(0)); err != nil {
				fmt.Fprintf(stderr, "bench: %v\n", err)
				return 1
			}
		}
		writeMetricTables(stdout, res)
		return 0
	}
	opt.trace = trace != 0
	// The product's slow-operation warnings go to the default logger; they
	// are counted in /metrics either way and would only clutter the report.
	slog.SetDefault(slog.New(slog.NewTextHandler(io.Discard, nil)))
	runtime.GOMAXPROCS(runtime.NumCPU())
	if opt.workload == "" {
		return runSuite(opt, reps, stdout, stderr)
	}
	res, err := runOne(opt, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", opt.workload, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "bench: encoding the result: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// setupRepeats is how many times a workload sets up before its timed phase;
// setup_s is the median.
func setupRepeats(c *runCtx) int {
	if c.smoke {
		return 1
	}
	return 3
}

// runOne executes one (workload, run) in this process and reports it.
func runOne(opt runOptions, stdout io.Writer) (*runResult, error) {
	spec := workloadByName(opt.workload)
	if spec == nil {
		return nil, fmt.Errorf("unknown workload (have %v)", workloadNames())
	}
	if opt.seconds <= 0 {
		return nil, fmt.Errorf("--seconds must be positive")
	}
	// Scratch space stays inside the checkout.
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return nil, err
	}
	workdir, err := os.MkdirTemp(".bench_build", "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(workdir)

	c := &runCtx{seed: opt.seed, seconds: opt.seconds, smoke: opt.smoke, nproc: runtime.NumCPU(), workdir: workdir}
	if opt.trace {
		c.tr = newTracer()
	}
	o, err := spec.run(c)
	if err != nil {
		return nil, err
	}
	if opt.trace {
		if err := runMicro(c, o); err != nil {
			return nil, err
		}
		o.layer["trace.ops_per_s"] = median(o.rate)
		spans := c.tr.snapshot()
		o.layer["trace.harness_spans"] = float64(len(spans))
		if err := os.MkdirAll(opt.out, 0o755); err != nil {
			return nil, err
		}
		if err := c.tr.write(filepath.Join(opt.out, "trace-"+spec.Name+".json")); err != nil {
			return nil, err
		}
		fmt.Fprintf(stdout, "%-12s %8s %12s %12s   (traced run, self time = span minus covered child time)\n", "layer", "spans", "self ms", "span ms")
		for _, r := range layerTable(spans) {
			fmt.Fprintf(stdout, "%-12s %8d %12.3f %12.3f\n", r.Layer, r.Spans, r.SelfMS, r.WallMS)
		}
	}
	for _, n := range o.notes {
		fmt.Fprintln(stdout, n)
	}

	res := &runResult{Correct: len(o.problems) == 0 && o.failed == 0, Attempted: o.attempted, Failed: o.failed,
		Metrics: map[string]metricValue{}}
	if res.Attempted < 1 {
		res.Attempted, res.Correct = 1, false
		o.problemf("no operation was attempted")
	}
	if opt.trace {
		for _, m := range layerMetrics {
			v := o.layer[m.Name]
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			res.Metrics[m.Name] = metricValue{v, m.Unit}
			fmt.Fprintf(stdout, "%-34s %16.6g %s\n", m.Name, v, m.Unit)
		}
		for name := range o.layer {
			if _, ok := res.Metrics[name]; !ok {
				o.problemf("workload reported %s, which the metric catalog does not list", name)
				res.Correct = false
			}
		}
	} else {
		// Every timing is the median across the run's slices.
		e2e := map[string][]float64{
			"setup_s":       o.setupS,
			"ops_per_s":     o.rate,
			"cpu_ms_per_op": o.cpuPerOp,
			"peak_rss_mb":   {o.rssMiB},
			"op_p50_ms":     o.p50,
			"op_p95_ms":     o.p95,
		}
		for _, m := range e2eMetrics {
			v := median(e2e[m.Name])
			if !(v > 0) || math.IsInf(v, 0) {
				o.problemf("%s = %v: an end-to-end metric must be a positive number", m.Name, v)
				res.Correct = false
				v = 0
			}
			res.Metrics[m.Name] = metricValue{v, m.Unit}
			fmt.Fprintf(stdout, "%-16s %16.6g %-5s median of %d slices:", m.Name, v, m.Unit, len(e2e[m.Name]))
			for _, x := range e2e[m.Name] {
				fmt.Fprintf(stdout, " %.4g", x)
			}
			fmt.Fprintln(stdout)
		}
		fmt.Fprintf(stdout, "%.0f ops, %d latency samples\n", o.ops, o.latN)
	}
	for _, p := range o.problems {
		fmt.Fprintf(stdout, "CHECK FAILED: %s\n", p)
	}
	return res, nil
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.Name)
	}
	return names
}

// benchmarkFile is the schema of the root BENCHMARK.json.
type benchmarkFile struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []e2eSpec      `json:"end_to_end"`
	PerLayer   []layerSpec    `json:"per_layer"`
}

// benchmarkJSON renders BENCHMARK.json from the metric catalog, the single
// place names, units and bounds are written down; a test keeps the
// committed file equal to it.
func benchmarkJSON() []byte {
	data, err := json.MarshalIndent(benchmarkFile{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: 10,
		Workloads:  workloads,
		EndToEnd:   e2eMetrics,
		PerLayer:   layerMetrics,
	}, "", "  ")
	if err != nil {
		panic(err) // plain structs of strings and numbers
	}
	return data
}
