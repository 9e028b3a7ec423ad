package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// workloadSamples holds every repetition's value of every metric of one
// workload: end-to-end metrics from the untraced runs, per-layer metrics
// from the traced run.
type workloadSamples struct {
	Correct bool                 `json:"correct"`
	E2E     map[string][]float64 `json:"e2e"`
	Layer   map[string][]float64 `json:"layer"`
}

// resultFile is what a suite run (and `compare -pairs`) writes: the numbers
// together with the environment, tree identity, seed and sizes they belong
// to.
type resultFile struct {
	Env       environment                 `json:"env"`
	Taken     string                      `json:"taken"`
	Seed      int64                       `json:"seed"`
	Seconds   float64                     `json:"seconds"`
	Smoke     bool                        `json:"smoke,omitempty"`
	Workloads map[string]*workloadSamples `json:"workloads"`
}

// parseResultLine decodes the last non-empty line of a run's stdout.
func parseResultLine(out []byte) (*runResult, error) {
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res runResult
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, fmt.Errorf("last output line is not a result: %w", err)
	}
	return &res, nil
}

// runChild runs one (workload, repetition) in a fresh process of binary:
// the DSL plan cache, the telemetry registry and the flight recorder are
// process-global, and peak RSS is per process.
func runChild(binary, dir string, opt runOptions, echo io.Writer) (*runResult, error) {
	trace := "0"
	if opt.trace {
		trace = "1"
	}
	args := []string{"--workload", opt.workload, "--seed", strconv.FormatInt(opt.seed, 10),
		"--seconds", strconv.FormatFloat(opt.seconds, 'g', -1, 64), "--trace", trace, "--out", opt.out}
	if opt.smoke {
		args = append(args, "--smoke")
	}
	cmd := exec.Command(binary, args...)
	cmd.Dir = dir
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	if echo != nil {
		for _, line := range strings.Split(strings.TrimSpace(stdout.String()), "\n") {
			if !strings.HasPrefix(line, "{") {
				fmt.Fprintf(echo, "    %s\n", line)
			}
		}
	}
	res, err := parseResultLine(stdout.Bytes())
	if err != nil {
		if runErr != nil {
			return nil, fmt.Errorf("%s: %w", opt.workload, runErr)
		}
		return nil, fmt.Errorf("%s: %w", opt.workload, err)
	}
	return res, nil
}

func (w *workloadSamples) addE2E(res *runResult) {
	for name, m := range res.Metrics {
		w.E2E[name] = append(w.E2E[name], m.Value)
	}
	w.Correct = w.Correct && res.Correct
}

// runSuite is `bench` with no workload named: every workload untraced (reps
// times, for the end-to-end table) and once more traced (for the per-layer
// table and the tracing overhead), each in a child process.
func runSuite(opt runOptions, reps int, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	if reps < 1 {
		reps = 1
	}
	file := &resultFile{Env: readEnvironment(), Taken: time.Now().UTC().Format(time.RFC3339),
		Seed: opt.seed, Seconds: opt.seconds, Smoke: opt.smoke, Workloads: map[string]*workloadSamples{}}
	env := file.Env
	fmt.Fprintf(stdout, "bench harness v%s · %s · %d cpus (GOMAXPROCS %d) · %s · kernel %s\n",
		harnessVersion, env.GoVersion, env.NProc, env.GOMAXPROCS, env.CPUModel, env.Kernel)
	fmt.Fprintf(stdout, "tree %s dirty=%v %s · seed %d · %g s timed phase · %d untraced + 1 traced run per workload\n\n",
		env.Commit, env.Dirty, env.TreeHash, opt.seed, opt.seconds, reps)

	ok := true
	for _, w := range workloads {
		ws := &workloadSamples{Correct: true, E2E: map[string][]float64{}, Layer: map[string][]float64{}}
		file.Workloads[w.Name] = ws
		fmt.Fprintf(stdout, "== %s — %s\n", w.Name, w.Why)
		child := opt
		child.workload = w.Name
		for r := 0; r < reps; r++ {
			child.trace = false
			res, err := runChild(self, "", child, nil)
			if err != nil {
				fmt.Fprintf(stderr, "bench: %v\n", err)
				ws.Correct, ok = false, false
				break
			}
			ws.addE2E(res)
		}
		child.trace = true
		fmt.Fprintf(stdout, "  traced run:\n")
		res, err := runChild(self, "", child, stdout)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			ws.Correct, ok = false, false
		} else {
			ws.Correct = ws.Correct && res.Correct
			for name, m := range res.Metrics {
				ws.Layer[name] = append(ws.Layer[name], m.Value)
			}
		}
		fmt.Fprintf(stdout, "  end to end (untraced, median of %d):\n", reps)
		for _, m := range e2eMetrics {
			q1, q2, q3 := quartiles(ws.E2E[m.Name])
			fmt.Fprintf(stdout, "    %-16s %14.6g %-5s  [q1 %.6g  q3 %.6g]  n=%d\n", m.Name, q2, m.Unit, q1, q3, len(ws.E2E[m.Name]))
		}
		if traced := ws.Layer["trace.ops_per_s"]; len(traced) > 0 && median(ws.E2E["ops_per_s"]) > 0 {
			fmt.Fprintf(stdout, "    %-16s %14.6g ratio  (1 − traced %.6g ÷ untraced %.6g ops_per_s)\n", "trace.overhead_frac",
				1-traced[0]/median(ws.E2E["ops_per_s"]), traced[0], median(ws.E2E["ops_per_s"]))
		}
		if !ws.Correct {
			ok = false
			fmt.Fprintf(stdout, "  OUTPUT CHECKS FAILED\n")
		}
		fmt.Fprintln(stdout)
	}

	if err := os.MkdirAll(opt.out, 0o755); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	path := filepath.Join(opt.out, "results-"+time.Now().UTC().Format("20060102T150405Z")+".json")
	data, _ := json.MarshalIndent(file, "", "  ")
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "results: %s · traces: %s\n", path, filepath.Join(opt.out, "trace-<workload>.json"))
	if !ok {
		return 1
	}
	return 0
}
