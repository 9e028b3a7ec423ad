package cluster

import (
	"math"
	"sync"
	"testing"
	"testing/quick"
)

func TestNewPoolValidation(t *testing.T) {
	for name, f := range map[string]func(){
		"zero gpus": func() { NewPool(0, 0.9) },
		"bad alpha": func() { NewPool(4, 1.5) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
	if p := NewPool(4, 0); p.Speedup(2) != math.Pow(2, 0.9) {
		t.Error("default alpha not applied")
	}
}

func TestSpeedup(t *testing.T) {
	p := NewPool(24, 0.9)
	if got := p.Speedup(1); got != 1 {
		t.Errorf("Speedup(1) = %g", got)
	}
	if got := p.Speedup(24); math.Abs(got-math.Pow(24, 0.9)) > 1e-12 {
		t.Errorf("Speedup(24) = %g", got)
	}
	if p.Speedup(0) != 0 {
		t.Error("Speedup(0) should be 0")
	}
	// Sublinear: doubling GPUs less than doubles speedup.
	if p.Speedup(16) >= 2*p.Speedup(8) {
		t.Error("scaling should be sublinear")
	}
}

func TestSingleDeviceSerializes(t *testing.T) {
	p := NewPool(8, 0.9)
	j1 := p.RunSingleDevice(80)
	j2 := p.RunSingleDevice(40)
	if j1.Start != 0 {
		t.Errorf("first job starts at %g", j1.Start)
	}
	if j2.Start != j1.End {
		t.Errorf("jobs overlap: j2 start %g, j1 end %g", j2.Start, j1.End)
	}
	wantDur := 80 / math.Pow(8, 0.9)
	if math.Abs((j1.End-j1.Start)-wantDur) > 1e-12 {
		t.Errorf("duration %g, want %g", j1.End-j1.Start, wantDur)
	}
	if p.Now() != j2.End {
		t.Errorf("clock %g, want %g", p.Now(), j2.End)
	}
	if j1.GPUs != 8 {
		t.Errorf("single-device job used %d GPUs", j1.GPUs)
	}
}

func TestOneGPUOverlaps(t *testing.T) {
	p := NewPool(2, 0.9)
	j1 := p.RunOneGPU(10)
	j2 := p.RunOneGPU(10)
	j3 := p.RunOneGPU(5)
	if j1.Start != 0 || j2.Start != 0 {
		t.Errorf("first two jobs should start immediately: %g, %g", j1.Start, j2.Start)
	}
	if j3.Start != 10 {
		t.Errorf("third job starts at %g, want 10 (after the earlier finisher)", j3.Start)
	}
	if j1.GPUs != 1 {
		t.Errorf("one-GPU job used %d GPUs", j1.GPUs)
	}
}

// The §5.3.2 claim: single-device returns the first model sooner (lower time
// to first completion) even though total GPU-time is comparable.
func TestSingleDeviceReturnsFirstModelFaster(t *testing.T) {
	single := NewPool(8, 0.9)
	multi := NewPool(8, 0.9)
	work := []float64{100, 100, 100, 100}
	var firstSingle, firstMulti float64
	for i, w := range work {
		j := single.RunSingleDevice(w)
		if i == 0 {
			firstSingle = j.End
		}
	}
	for i, w := range work {
		j := multi.RunOneGPU(w)
		if i == 0 {
			firstMulti = j.End
		}
	}
	if firstSingle >= firstMulti {
		t.Errorf("single-device first completion %g not before multi-device %g", firstSingle, firstMulti)
	}
}

func TestNonPositiveWorkPanics(t *testing.T) {
	p := NewPool(2, 0.9)
	for name, f := range map[string]func(){
		"single": func() { p.RunSingleDevice(0) },
		"one":    func() { p.RunOneGPU(-1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}

func TestConcurrentSubmissions(t *testing.T) {
	p := NewPool(4, 0.9)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				p.RunSingleDevice(1)
				p.RunOneGPU(1)
			}
		}()
	}
	wg.Wait()
	// 320 unit jobs: the running work total counts every one of them.
	if got, want := p.SingleDeviceTime(), 320/p.Speedup(4); math.Abs(got-want) > 1e-9 {
		t.Errorf("single-device time %g, want %g for 320 unit jobs", got, want)
	}
}

func TestRunOneGPUAmongRespectsLimit(t *testing.T) {
	p := NewPool(8, 0.9)
	// Four equal jobs onto two devices: two waves of two.
	var jobs []Job
	for i := 0; i < 4; i++ {
		jobs = append(jobs, p.RunOneGPUAmong(10, 2))
	}
	if jobs[0].Start != 0 || jobs[1].Start != 0 {
		t.Errorf("first wave starts %g/%g, want 0/0", jobs[0].Start, jobs[1].Start)
	}
	if jobs[2].Start != 10 || jobs[3].Start != 10 {
		t.Errorf("second wave starts %g/%g, want 10/10", jobs[2].Start, jobs[3].Start)
	}
	if p.Makespan() != 20 {
		t.Errorf("makespan %g, want 20", p.Makespan())
	}
	// Out-of-range limits fall back to the whole pool.
	q := NewPool(3, 0.9)
	a := q.RunOneGPUAmong(5, 0)
	b := q.RunOneGPUAmong(5, 99)
	if a.Start != 0 || b.Start != 0 {
		t.Errorf("whole-pool fallback serialized: %g/%g", a.Start, b.Start)
	}
}

func TestMakespanAndSingleDeviceTime(t *testing.T) {
	p := NewPool(4, 1) // linear scaling for exact numbers
	if p.Makespan() != 0 || p.SingleDeviceTime() != 0 {
		t.Error("idle pool should report zero virtual times")
	}
	// Four unit-work jobs, one GPU each: makespan 1. Serialized across the
	// whole 4-GPU pool they would take 4 × (1/4) = 1 as well (linear
	// scaling makes the strategies tie).
	for i := 0; i < 4; i++ {
		p.RunOneGPU(1)
	}
	if math.Abs(p.Makespan()-1) > 1e-12 {
		t.Errorf("makespan %g, want 1", p.Makespan())
	}
	if math.Abs(p.SingleDeviceTime()-1) > 1e-12 {
		t.Errorf("single-device time %g, want 1", p.SingleDeviceTime())
	}
	// Sublinear scaling breaks the tie in favour of one-GPU packing.
	q := NewPool(4, 0.5)
	for i := 0; i < 4; i++ {
		q.RunOneGPU(1)
	}
	if q.Makespan() >= q.SingleDeviceTime() {
		t.Errorf("sublinear pool: makespan %g should beat single-device %g", q.Makespan(), q.SingleDeviceTime())
	}
}

// Property: jobs never overlap in single-device mode and the clock equals
// the sum of durations.
func TestQuickSingleDeviceClock(t *testing.T) {
	f := func(works []uint8) bool {
		p := NewPool(8, 0.9)
		var sum float64
		prevEnd := 0.0
		for _, w := range works {
			work := 1 + float64(w)
			j := p.RunSingleDevice(work)
			if j.Start != prevEnd {
				return false
			}
			prevEnd = j.End
			sum += work / p.Speedup(8)
		}
		return math.Abs(p.Now()-sum) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
