package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
	"testing"

	"repro/internal/quality"
)

func committed(t *testing.T) []pin {
	t.Helper()
	data, err := os.ReadFile("../../BENCH_quality.json")
	if err != nil {
		t.Fatal(err)
	}
	var f pinFile
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	return f.Rows
}

// TestCommittedPinsHold is the gate's pass verdict on this tree: every row
// of the harness reproduces its committed bits.
func TestCommittedPinsHold(t *testing.T) {
	got, err := runAll(quality.Rows())
	if err != nil {
		t.Fatal(err)
	}
	var errs strings.Builder
	if gate(committed(t), got, io.Discard, &errs) != 0 {
		t.Fatalf("the committed pins do not hold:\n%s", errs.String())
	}
}

// TestChangedBitFails is the fail verdict: one ULP on one figure of one
// row fails the gate and names the row and the figure.
func TestChangedBitFails(t *testing.T) {
	pins := committed(t)
	got := append([]pin(nil), pins...)
	v, err := strconv.ParseFloat(got[3].AUC, 64)
	if err != nil {
		t.Fatal(err)
	}
	got[3].AUC = hex(math.Nextafter(v, math.Inf(1)))
	var errs strings.Builder
	if gate(pins, got, io.Discard, &errs) != 1 {
		t.Fatal("a one-ULP change passed the gate")
	}
	if !strings.Contains(errs.String(), got[3].Row+" auc") {
		t.Errorf("the failure does not name %s auc:\n%s", got[3].Row, errs.String())
	}
}

// TestRowSetMustMatch fails a row that runs without a pin and a pin whose
// row did not run.
func TestRowSetMustMatch(t *testing.T) {
	pins := committed(t)
	if gate(pins, pins[1:], io.Discard, io.Discard) != 1 {
		t.Error("a pinned row that did not run passed the gate")
	}
	if gate(pins[1:], pins, io.Discard, io.Discard) != 1 {
		t.Error("an unpinned row passed the gate")
	}
	if gate(pins, pins, io.Discard, io.Discard) != 0 {
		t.Error("the pins against themselves failed the gate")
	}
}
