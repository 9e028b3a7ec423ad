package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
	"testing"
)

// committed loads the repository's baseline and keeps only the named pins,
// so a test can feed the lines of those benchmarks alone.
func committed(t *testing.T, names ...string) baseline {
	t.Helper()
	data, err := os.ReadFile("../../BENCH_allocs.json")
	if err != nil {
		t.Fatal(err)
	}
	var all baseline
	if err := json.Unmarshal(data, &all); err != nil {
		t.Fatal(err)
	}
	base := baseline{MaxGrowthFactor: all.MaxGrowthFactor, Benchmarks: map[string]pin{}}
	for _, name := range names {
		p, ok := all.Benchmarks[name]
		if !ok {
			t.Fatalf("BENCH_allocs.json has no pin for %s", name)
		}
		base.Benchmarks[name] = p
	}
	return base
}

func passes(base baseline, output string) bool {
	return run(base, strings.NewReader(output), io.Discard, io.Discard) == 0
}

func TestObservePosteriorByteCeiling(t *testing.T) {
	base := committed(t, "BenchmarkObservePosterior")
	// 746,720 B/op is a read that allocates both posterior surfaces again:
	// inside the 2× growth limit of the bytes pin, over the hard ceiling.
	if passes(base, "BenchmarkObservePosterior-2   20   451680 ns/op   746720 B/op   407 allocs/op") {
		t.Error("746,720 B/op passed the gate")
	}
	if !passes(base, "BenchmarkObservePosterior-2   20   451680 ns/op   473312 B/op   407 allocs/op") {
		t.Error("the pinned 473,312 B/op failed the gate")
	}
}

func TestPickWorkContentionBudget(t *testing.T) {
	for _, name := range []string{"BenchmarkPickWorkContention/global-lock", "BenchmarkPickWorkContention/per-job-locks"} {
		base := committed(t, name)
		line := name + "-2   2000   989.2 ns/op   2527 picks/s   589 B/op   %d allocs/op"
		if !passes(base, fmt.Sprintf(line, 6)) {
			t.Errorf("%s: 6 allocs/op failed the gate", name)
		}
		if passes(base, fmt.Sprintf(line, 7)) {
			t.Errorf("%s: 7 allocs/op passed the gate", name)
		}
	}
}

func TestMissingBenchmarkFails(t *testing.T) {
	if passes(committed(t, "BenchmarkTuneRBF"), "BenchmarkPosterior-2   1000   9537 ns/op   5832 B/op   2 allocs/op") {
		t.Error("a pinned benchmark that did not run passed the gate")
	}
}

func TestMaxBytesNeedsBytes(t *testing.T) {
	base := baseline{Benchmarks: map[string]pin{"BenchmarkX": {Allocs: 1, MaxBytes: 100}}}
	if passes(base, "BenchmarkX-2   10   5 ns/op   50 B/op   1 allocs/op") {
		t.Error("a max_bytes without a bytes pin passed the gate")
	}
}
