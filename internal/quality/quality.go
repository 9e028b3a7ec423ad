// Package quality measures the paper's metric through the service's own
// decision loop: each tenant's accuracy loss against the device time spent
// to drive it down (§5's "accuracy loss" curves), for a fixed tenant mix
// submitted to a server.Scheduler and trained on the simulated substrate.
//
// A job's loss is the true quality of its best candidate minus the true
// quality of its best-observed model (SimTrainer.TrueQuality; a job with no
// trained model has accuracy 0). The reported loss is the mean over jobs.
// Device time is the summed cost of the settled runs, as a fraction of the
// cost of training every candidate of every job.
//
// Two loops drive the scheduler, both to exhaustion:
//
//   - devices = 1 is the serial RunRound loop: Grant(1, 1), train, settle.
//   - devices = k > 1 keeps k leases outstanding — Grant(k, k) — runs each
//     on one device of a cluster.Pool virtual clock and settles the lease
//     that finishes first, so every later pick is made with the other
//     in-flight arms hallucinated (GP-BUCB).
//
// Every step is deterministic, so a row's figures repeat bit for bit; a
// change that moves any pick moves them (tools/qualitygate pins them).
package quality

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"repro/internal/cluster"
	"repro/internal/server"
)

// Programs is the tenant mix: two image-classification programs (35
// candidates each, two plans), alternating by tenant.
var Programs = [2]string{
	"{input: {[Tensor[16, 16, 3]], []}, output: {[Tensor[2]], []}}",
	"{input: {[Tensor[32, 32, 3]], []}, output: {[Tensor[10]], []}}",
}

// Target is the loss level TimeToTarget is measured at.
const Target = 0.01

// gridPoints is the resolution of the device-time grid AUC is read on.
const gridPoints = 100

// Row names one measured configuration.
type Row struct {
	Jobs    int
	Devices int
	Seed    int64
}

// Key renders the row as the pin file's key.
func (r Row) Key() string {
	return fmt.Sprintf("jobs=%d/devices=%d/seed=%d", r.Jobs, r.Devices, r.Seed)
}

// Rows is the gated set: 8 and 32 jobs, the serial loop and four devices,
// seeds 1–10.
func Rows() []Row {
	var rows []Row
	for _, jobs := range []int{8, 32} {
		for _, devices := range []int{1, 4} {
			for seed := int64(1); seed <= 10; seed++ {
				rows = append(rows, Row{Jobs: jobs, Devices: devices, Seed: seed})
			}
		}
	}
	return rows
}

// Result is one row's figures. Times are device-time fractions in [0, 1];
// TimeToTarget is +Inf when the mean loss never reaches Target.
type Result struct {
	AUC          float64 // mean loss over the 100-point device-time grid
	TimeToTarget float64 // first device time at which the mean loss ≤ Target
	Final        float64 // mean loss once every candidate is trained
	TimeToFinal  float64 // device time after which the mean loss stays Final
}

// Run drives one row to exhaustion and returns its figures. The seed picks
// the trainer's surfaces and the order the tenants submit in.
func Run(r Row) (Result, error) {
	if r.Jobs < 1 || r.Devices < 1 {
		return Result{}, fmt.Errorf("quality: row %s needs at least one job and one device", r.Key())
	}
	trainer := server.NewSimTrainer(nil, r.Seed)
	sc := server.NewScheduler(trainer, nil, "")
	tr := &tracker{jobs: make(map[string]*jobLoss, r.Jobs)}
	for _, k := range rand.New(rand.NewSource(r.Seed)).Perm(r.Jobs) {
		job, err := sc.Submit(fmt.Sprintf("tenant-%02d", k), Programs[k%len(Programs)])
		if err != nil {
			return Result{}, fmt.Errorf("quality: %s: %w", r.Key(), err)
		}
		jl := &jobLoss{}
		for _, c := range job.Candidates {
			q, err := trainer.TrueQuality(job.ID, c)
			if err != nil {
				return Result{}, fmt.Errorf("quality: %s: %w", r.Key(), err)
			}
			jl.trueBest = math.Max(jl.trueBest, q)
		}
		jl.loss = jl.trueBest
		tr.jobs[job.ID] = jl
		tr.order = append(tr.order, jl)
	}
	tr.record(0)

	type run struct {
		lease     *server.Lease
		acc, cost float64
		end       float64
	}
	pool := cluster.NewPool(r.Devices, 0)
	var pending []run
	var device float64
	for {
		leases, err := sc.Grant(r.Devices, r.Devices)
		if err != nil {
			return Result{}, fmt.Errorf("quality: %s: %w", r.Key(), err)
		}
		for _, l := range leases {
			acc, cost, err := trainer.Train(l.JobID, l.Candidate)
			if err != nil {
				return Result{}, fmt.Errorf("quality: %s: %w", r.Key(), err)
			}
			end := pool.RunOneGPUAmong(cost, r.Devices).End
			pending = append(pending, run{lease: l, acc: acc, cost: cost, end: end})
		}
		if len(pending) == 0 {
			break
		}
		// The first finisher settles; ties go to the older lease.
		first := 0
		for i, p := range pending {
			if p.end < pending[first].end || (p.end == pending[first].end && p.lease.ID < pending[first].lease.ID) {
				first = i
			}
		}
		p := pending[first]
		pending = slices.Delete(pending, first, first+1)
		if _, err := sc.Settle(p.lease, p.acc, p.cost, nil); err != nil {
			return Result{}, fmt.Errorf("quality: %s: settling %s/%s: %w", r.Key(), p.lease.JobID, p.lease.Candidate.Name(), err)
		}
		q, err := trainer.TrueQuality(p.lease.JobID, p.lease.Candidate)
		if err != nil {
			return Result{}, fmt.Errorf("quality: %s: %w", r.Key(), err)
		}
		tr.jobs[p.lease.JobID].observe(p.acc, q)
		device += p.cost
		tr.record(device)
	}
	return tr.result(), nil
}

// jobLoss is one job's running loss.
type jobLoss struct {
	trueBest float64 // true quality of the job's best candidate
	bestAcc  float64 // best accuracy observed so far
	trained  bool
	loss     float64 // trueBest − true quality of the best-observed model
}

// observe folds in one settled run: a strictly better accuracy makes its
// candidate the job's best-observed model.
func (j *jobLoss) observe(acc, trueQuality float64) {
	if j.trained && acc <= j.bestAcc {
		return
	}
	j.trained, j.bestAcc = true, acc
	j.loss = j.trueBest - trueQuality
}

// tracker records the mean loss after every settle.
type tracker struct {
	jobs   map[string]*jobLoss
	order  []*jobLoss // submission order: the mean sums in it
	device []float64  // cumulative device time at each point
	loss   []float64  // mean loss at each point
}

func (t *tracker) record(device float64) {
	var sum float64
	for _, j := range t.order {
		sum += j.loss
	}
	t.device = append(t.device, device)
	t.loss = append(t.loss, sum/float64(len(t.order)))
}

func (t *tracker) result() Result {
	n := len(t.loss)
	total := t.device[n-1]
	res := Result{Final: t.loss[n-1], TimeToTarget: math.Inf(1)}
	for i, l := range t.loss {
		if l <= Target {
			res.TimeToTarget = t.device[i] / total
			break
		}
	}
	for i := n - 1; i > 0; i-- {
		if t.loss[i-1] != res.Final {
			res.TimeToFinal = t.device[i] / total
			break
		}
	}
	// The loss at a grid point is the mean loss after the last settle
	// within that much device time.
	var sum float64
	i := 0
	for g := 1; g <= gridPoints; g++ {
		x := total * float64(g) / gridPoints
		for i+1 < n && t.device[i+1] <= x {
			i++
		}
		sum += t.loss[i]
	}
	res.AUC = sum / gridPoints
	return res
}
