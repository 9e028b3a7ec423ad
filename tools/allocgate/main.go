// Command allocgate is CI's allocation-regression gate: it reads `go test
// -bench -benchmem` output on stdin, extracts allocs/op and B/op per
// benchmark, and compares them against the committed baseline
// (BENCH_allocs.json at the repository root). A benchmark growing past
// baseline × max_growth_factor fails the gate — the backstop that keeps the
// pick path's alloc-free shadows from silently regressing into per-pick
// posterior copies again.
//
// Usage:
//
//	go test -run NONE -bench 'BenchmarkPickWorkContention$' -benchmem -benchtime=1x ./internal/server | \
//	    go run ./tools/allocgate -baseline BENCH_allocs.json
//
// The baseline schema:
//
//	{
//	  "max_growth_factor": 2.0,
//	  "benchmarks": {
//	    "BenchmarkPosterior": 6,
//	    "BenchmarkObservePosterior": {"allocs": 585, "bytes": 746720}
//	  }
//	}
//
// A plain number pins allocs/op alone; an object pins B/op too. Counts
// catch a path that starts allocating per item; bytes catch the one that
// keeps its count and grows what it allocates — and on a GC-bound workload
// bytes per step × steps per second is the allocation rate the heap goal,
// and so the process's peak RSS, follows. An object's "max" is a budget:
// allocs/op may not pass it, whatever the growth factor allows
// ({"allocs": 2, "max": 2} holds a benchmark at exactly its budget).
// "max_bytes" is the same budget for B/op; without "bytes" beside it the
// limit is 0 and the gate fails.
//
// Benchmarks in the baseline that do not appear on stdin fail the gate
// (a renamed or deleted benchmark must update the baseline explicitly);
// benchmarks on stdin without a baseline entry are reported but not
// enforced, so new benchmarks can be added before being pinned.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"strconv"
	"strings"
)

type baseline struct {
	MaxGrowthFactor float64        `json:"max_growth_factor"`
	Benchmarks      map[string]pin `json:"benchmarks"`
}

// pin is one benchmark's baseline: allocs/op, B/op when Bytes > 0, and hard
// ceilings on allocs/op when Max > 0 and on B/op when MaxBytes > 0.
type pin struct {
	Allocs   float64 `json:"allocs"`
	Bytes    float64 `json:"bytes"`
	Max      float64 `json:"max"`
	MaxBytes float64 `json:"max_bytes"`
}

// UnmarshalJSON accepts a plain number (allocs/op only) or an object.
func (p *pin) UnmarshalJSON(data []byte) error {
	if err := json.Unmarshal(data, &p.Allocs); err == nil {
		return nil
	}
	type object pin
	return json.Unmarshal(data, (*object)(p))
}

// benchLine matches one -benchmem result row, e.g.
// "BenchmarkPosterior-8  123456  9537 ns/op  5832 B/op  6 allocs/op"
// (custom metrics may sit between ns/op and B/op).
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+.*?(\d+(?:\.\d+)?) B/op\s+(\d+(?:\.\d+)?) allocs/op`)

func main() {
	baselinePath := flag.String("baseline", "BENCH_allocs.json", "committed allocs/op baseline")
	flag.Parse()

	data, err := os.ReadFile(*baselinePath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "allocgate: reading baseline: %v\n", err)
		os.Exit(2)
	}
	var base baseline
	if err := json.Unmarshal(data, &base); err != nil {
		fmt.Fprintf(os.Stderr, "allocgate: parsing baseline: %v\n", err)
		os.Exit(2)
	}
	os.Exit(run(base, os.Stdin, os.Stdout, os.Stderr))
}

// run gates the -benchmem output read from in against base, writing ok and
// note lines to out and failures to errOut, and returns the exit status:
// 0 when every pin holds, 1 when one does not, 2 when in cannot be read.
func run(base baseline, in io.Reader, out, errOut io.Writer) int {
	if base.MaxGrowthFactor <= 1 {
		base.MaxGrowthFactor = 2
	}

	got := make(map[string]pin)
	sc := bufio.NewScanner(in)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		bytes, errB := strconv.ParseFloat(m[2], 64)
		allocs, errA := strconv.ParseFloat(m[3], 64)
		if errB != nil || errA != nil {
			continue
		}
		got[m[1]] = pin{Allocs: allocs, Bytes: bytes}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintf(errOut, "allocgate: reading stdin: %v\n", err)
		return 2
	}

	failed := false
	// check enforces one figure of one benchmark against its baseline,
	// and against budget when it is positive.
	check := func(name, unit string, cur, pinned, budget float64) {
		limit := pinned * base.MaxGrowthFactor
		if budget > 0 && budget < limit {
			limit = budget
		}
		if cur > limit {
			fmt.Fprintf(errOut, "allocgate: FAIL %s: %.0f %s exceeds %.0f (baseline %.0f × %.1f, budget %.0f)\n",
				name, cur, unit, limit, pinned, base.MaxGrowthFactor, budget)
			failed = true
			return
		}
		fmt.Fprintf(out, "allocgate: ok %s: %.0f %s (limit %.0f)\n", name, cur, unit, limit)
	}
	for name, want := range base.Benchmarks {
		cur, ok := got[name]
		if !ok {
			fmt.Fprintf(errOut, "allocgate: FAIL %s: baseline present but benchmark did not run\n", name)
			failed = true
			continue
		}
		check(name, "allocs/op", cur.Allocs, want.Allocs, want.Max)
		if want.Bytes > 0 || want.MaxBytes > 0 {
			check(name, "B/op", cur.Bytes, want.Bytes, want.MaxBytes)
		}
	}
	for name, cur := range got {
		if _, ok := base.Benchmarks[name]; !ok {
			fmt.Fprintf(out, "allocgate: note %s: %.0f allocs/op, %.0f B/op (no baseline, not enforced)\n", name, cur.Allocs, cur.Bytes)
		}
	}
	if failed {
		return 1
	}
	return 0
}
