// Package cluster simulates ease.ml's shared GPU pool (§2 Figure 1, §4.5,
// §5.3.2's single- vs multi-device discussion): 24 TITAN X GPUs connected by
// InfiniBand, with near-linear scaling under low-precision communication.
//
// The pool keeps a virtual clock. In single-device mode (the paper's
// deployed configuration) every job takes the whole pool and runs
// work/speedup(numGPUs) time units; in multi-device mode each job takes one
// GPU and jobs overlap. Both modes account completion times so callers can
// compare accumulated regret between the two strategies.
package cluster

import (
	"fmt"
	"math"
	"sync"
)

// Job is one completed training job with its virtual-time interval.
type Job struct {
	Work  float64 // GPU-time units on a single GPU
	GPUs  int     // GPUs the job ran on
	Start float64 // virtual start time
	End   float64 // virtual completion time
}

// Pool is a simulated GPU pool with a virtual clock.
type Pool struct {
	mu sync.Mutex

	numGPUs int
	// alpha is the scaling exponent: g GPUs yield g^alpha speedup. The
	// paper's setup (InfiniBand + low-precision ZipML transfers + the Goyal
	// et al. learning-rate schedule) achieves "significant speed up"; 0.9
	// models near-linear scaling with a mild synchronization tax.
	alpha float64

	clock     float64   // single-device frontier
	gpuFree   []float64 // per-GPU next-free time (multi-device mode)
	horizon   float64   // latest completion time over all jobs
	workTotal float64   // total work submitted, for the serialized baseline
}

// NewPool creates a pool of numGPUs devices with scaling exponent alpha
// (defaults: alpha 0.9). It panics if numGPUs < 1 or alpha ∉ (0, 1].
func NewPool(numGPUs int, alpha float64) *Pool {
	if numGPUs < 1 {
		panic(fmt.Sprintf("cluster: need at least one GPU, got %d", numGPUs))
	}
	if alpha == 0 {
		alpha = 0.9
	}
	if alpha <= 0 || alpha > 1 {
		panic(fmt.Sprintf("cluster: scaling exponent %g outside (0,1]", alpha))
	}
	return &Pool{numGPUs: numGPUs, alpha: alpha, gpuFree: make([]float64, numGPUs)}
}

// Speedup returns the simulated speedup of running one job on g GPUs:
// g^alpha.
func (p *Pool) Speedup(g int) float64 {
	if g < 1 {
		return 0
	}
	return math.Pow(float64(g), p.alpha)
}

// RunSingleDevice executes a job on the whole pool (the deployed ease.ml
// strategy: "use all its GPUs to train a single model"). Jobs serialize on
// the virtual clock. It returns the completed job record.
func (p *Pool) RunSingleDevice(work float64) Job {
	if work <= 0 {
		panic(fmt.Sprintf("cluster: non-positive work %g", work))
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	dur := work / p.Speedup(p.numGPUs)
	j := Job{Work: work, GPUs: p.numGPUs, Start: p.clock, End: p.clock + dur}
	p.clock = j.End
	// Single-device runs also occupy every GPU.
	for i := range p.gpuFree {
		if p.gpuFree[i] < j.End {
			p.gpuFree[i] = j.End
		}
	}
	p.record(j)
	return j
}

// record folds a finished job into the running aggregates; the pool keeps
// no history, so a long-running service holds O(1) state per pool. Callers
// must hold p.mu.
func (p *Pool) record(j Job) {
	if j.End > p.horizon {
		p.horizon = j.End
	}
	p.workTotal += j.Work
}

// RunOneGPU executes a job on the earliest-available single GPU (the
// multi-device alternative of §5.3.2). Jobs overlap across GPUs.
func (p *Pool) RunOneGPU(work float64) Job {
	return p.RunOneGPUAmong(work, p.numGPUs)
}

// RunOneGPUAmong executes a job on the earliest-available single GPU among
// the first limit devices. The execution engine uses this to account runs
// when its worker pool owns only a slice of the cluster: W workers can keep
// at most W devices busy, so packing onto more would under-report the
// virtual makespan. limit ≤ 0 or beyond the pool size means the whole pool.
func (p *Pool) RunOneGPUAmong(work float64, limit int) Job {
	if work <= 0 {
		panic(fmt.Sprintf("cluster: non-positive work %g", work))
	}
	if limit <= 0 || limit > p.numGPUs {
		limit = p.numGPUs
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	g := 0
	for i, free := range p.gpuFree[:limit] {
		if free < p.gpuFree[g] {
			g = i
		}
	}
	start := p.gpuFree[g]
	if p.clock > start {
		start = p.clock
	}
	j := Job{Work: work, GPUs: 1, Start: start, End: start + work}
	p.gpuFree[g] = j.End
	p.record(j)
	return j
}

// Now returns the single-device virtual clock.
func (p *Pool) Now() float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.clock
}

// Makespan returns the virtual completion time of the last finished job —
// the multi-device analogue of Now (which only tracks the single-device
// frontier). An idle pool reports 0.
func (p *Pool) Makespan() float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.horizon
}

// SingleDeviceTime returns the virtual time the completed job set would
// have taken under the deployed single-device strategy (every job takes the
// whole pool, strictly serialized) — the baseline an engine run's Makespan
// is compared against for the §5.3.2 strategy comparison.
func (p *Pool) SingleDeviceTime() float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.workTotal / math.Pow(float64(p.numGPUs), p.alpha)
}
