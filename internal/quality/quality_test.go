package quality

import (
	"math"
	"testing"
)

// TestRunIsDeterministic runs a serial and a four-device row twice: the
// figures repeat bit for bit, which is what lets tools/qualitygate pin them.
func TestRunIsDeterministic(t *testing.T) {
	for _, r := range []Row{{Jobs: 8, Devices: 1, Seed: 3}, {Jobs: 8, Devices: 4, Seed: 3}} {
		a, err := Run(r)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Run(r)
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Errorf("%s: %+v then %+v", r.Key(), a, b)
		}
	}
}

// TestFiguresAreLossCurves checks each row's figures describe a loss curve
// that falls to its final value: every time lies in [0, 1], the final loss
// is below the target and no larger than the AUC, and the loss reaches the
// target no later than it settles.
func TestFiguresAreLossCurves(t *testing.T) {
	for _, r := range Rows() {
		if r.Seed > 3 {
			continue
		}
		res, err := Run(r)
		if err != nil {
			t.Fatal(err)
		}
		ok := res.Final >= 0 && res.Final <= Target && res.Final <= res.AUC &&
			res.TimeToTarget > 0 && res.TimeToTarget <= res.TimeToFinal && res.TimeToFinal <= 1
		if !ok || math.IsNaN(res.AUC) {
			t.Errorf("%s: %+v", r.Key(), res)
		}
	}
}
