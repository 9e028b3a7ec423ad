package main

import (
	"fmt"
	"math/rand"
	"os"
	"sync"
	"time"

	"repro/internal/admission"
	"repro/internal/bandit"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dsl"
	"repro/internal/gp"
	"repro/internal/linalg"
	"repro/internal/server"
	"repro/internal/storage"
	"repro/internal/templates"
)

// The source-(a) metrics: the harness calls a package's public functions
// directly, on state shaped like the workloads' (t=90 observations over
// K=179 arms is a 179CLASSIFIER tenant at half budget; 256 jobs ~60 %
// observed is a drain in mid-flight). They run after the timed phase of the
// traced run, microSamples samples each, median reported.
const (
	microSamples = 5
	microArms    = 179
	microObs     = 90
)

// microSizes shrinks the shaped state for the smoke run.
type microSizes struct {
	arms, obs, jobs, iters, walEvents int
}

func microSizesFor(smoke bool) microSizes {
	if smoke {
		return microSizes{arms: 24, obs: 10, jobs: 12, iters: 4, walEvents: 60}
	}
	return microSizes{arms: microArms, obs: microObs, jobs: 256, iters: 40, walEvents: 3000}
}

// sampleMedian runs f (which returns one per-op time) microSamples times and
// returns the median in the wanted unit (ns per unit).
func sampleMedian(unitNS float64, f func() time.Duration) float64 {
	xs := make([]float64, microSamples)
	for i := range xs {
		xs[i] = float64(f().Nanoseconds()) / unitNS
	}
	return median(xs)
}

// perOp times iters calls of f.
func perOp(iters int, f func()) time.Duration {
	t0 := time.Now()
	for i := 0; i < iters; i++ {
		f()
	}
	return time.Since(t0) / time.Duration(iters)
}

var microSink float64

// runMicro fills every source-(a) metric into o.layer.
func runMicro(c *runCtx, o *outcome) error {
	sz := microSizesFor(c.smoke)
	rng := rand.New(rand.NewSource(c.seed ^ 0x6d6963))
	microLinalgGP(o, sz, rng)
	microCore(o, sz, rng)
	microParse(o, sz)
	if err := microServer(c, o, sz); err != nil {
		return fmt.Errorf("server micro: %w", err)
	}
	if err := microStorage(c, o, sz); err != nil {
		return fmt.Errorf("storage micro: %w", err)
	}
	return nil
}

// shapedGP builds a K-arm process over random features with t observations.
func shapedGP(sz microSizes, rng *rand.Rand) (*gp.GP, []int) {
	features := make([][]float64, sz.arms)
	for i := range features {
		f := make([]float64, 16)
		for j := range f {
			f[j] = rng.Float64()
		}
		features[i] = f
	}
	g := gp.NewFromFeatures(gp.RBF{Variance: 0.05, LengthScale: 1}, features, 1e-4)
	order := rng.Perm(sz.arms)
	for _, k := range order[:sz.obs] {
		if err := g.Observe(k, 0.5+0.3*rng.Float64()); err != nil {
			panic(err) // a fixed well-conditioned prior; cannot fail
		}
	}
	return g, order
}

func microLinalgGP(o *outcome, sz microSizes, rng *rand.Rand) {
	// linalg: a factor of the shaped size, extended by one row.
	n := sz.obs
	a := linalg.NewMatrix(n+1, n+1)
	pts := make([]float64, n+1)
	for i := range pts {
		pts[i] = rng.Float64() * 4
	}
	for i := 0; i <= n; i++ {
		for j := 0; j <= n; j++ {
			d := pts[i] - pts[j]
			v := 1 / (1 + d*d)
			if i == j {
				v += 0.1
			}
			a.Set(i, j, v)
		}
	}
	full, err := linalg.NewCholesky(a)
	if err != nil {
		panic(err) // Cauchy kernel + ridge is positive definite
	}
	base := full.Snapshot()
	base.Truncate(n)
	row := append([]float64(nil), a.Row(n)...)
	o.layer["linalg.extend_us"] = sampleMedian(1e3, func() time.Duration {
		return perOp(sz.iters, func() {
			s := base.Snapshot()
			_ = s.Extend(row)
		})
	})
	rhs := make([]float64, n*sz.arms)
	for i := range rhs {
		rhs[i] = rng.Float64()
	}
	o.layer["linalg.solve_batch_us"] = sampleMedian(1e3, func() time.Duration {
		return perOp(sz.iters/4+1, func() { microSink += base.ForwardSolveBatch(rhs, sz.arms)[0] })
	})
	o.layer["linalg.snapshot_ns"] = sampleMedian(1, func() time.Duration {
		return perOp(sz.iters*50, func() { microSink += float64(base.Snapshot().Size()) })
	})

	// gp: observe / posterior / hallucinate / shadow on a shaped process.
	g, order := shapedGP(sz, rng)
	nextArm := order[sz.obs]
	g.Posterior() // make the cached surface current, as it is between picks
	var obs, post, hall time.Duration
	o.layer["gp.observe_us"] = sampleMedian(1e3, func() time.Duration {
		obs, post = 0, 0
		for i := 0; i < sz.iters; i++ {
			s := g.Shadow()
			t0 := time.Now()
			_ = s.Observe(nextArm, 0.7)
			t1 := time.Now()
			mu, _ := s.Posterior()
			t2 := time.Now()
			microSink += mu[0]
			obs += t1.Sub(t0)
			post += t2.Sub(t1)
		}
		return obs / time.Duration(sz.iters)
	})
	o.layer["gp.posterior_us"] = float64((post / time.Duration(sz.iters)).Nanoseconds()) / 1e3
	o.layer["gp.hallucinate_us"] = sampleMedian(1e3, func() time.Duration {
		hall = 0
		for i := 0; i < sz.iters; i++ {
			s := g.Shadow()
			t0 := time.Now()
			_ = s.ObserveHallucinated(nextArm)
			hall += time.Since(t0)
		}
		return hall / time.Duration(sz.iters)
	})
	o.layer["gp.shadow_ns"] = sampleMedian(1, func() time.Duration {
		return perOp(sz.iters*50, func() { microSink += float64(g.Shadow().NumArms()) })
	})

	// bandit: a full-miss SelectArm (posterior pass + UCB sweep) and Observe.
	costs := make([]float64, sz.arms)
	for i := range costs {
		costs[i] = 0.5 + rng.Float64()
	}
	g2, order2 := shapedGP(sz, rng)
	b := bandit.New(g2, bandit.Config{Costs: costs, CostAware: true, Mean0: 0.6})
	arm := order2[sz.obs]
	var sel, bobs time.Duration
	o.layer["bandit.observe_us"] = sampleMedian(1e3, func() time.Duration {
		sel, bobs = 0, 0
		for i := 0; i < sz.iters; i++ {
			s := b.NewShadow(nil)
			t0 := time.Now()
			_ = s.Observe(arm, 0.7)
			t1 := time.Now()
			k, _ := s.SelectArm()
			t2 := time.Now()
			microSink += float64(k)
			bobs += t1.Sub(t0)
			sel += t2.Sub(t1)
		}
		return bobs / time.Duration(sz.iters)
	})
	o.layer["bandit.select_us"] = float64((sel / time.Duration(sz.iters)).Nanoseconds()) / 1e3
}

func microCore(o *outcome, sz microSizes, rng *rand.Rand) {
	// core: HybridPicker.Pick over sz.jobs tenants, each with a small served
	// bandit (the cross-tenant sweep is what scales with tenants).
	small := microSizes{arms: 35, obs: 8}
	if sz.arms < small.arms {
		small = microSizes{arms: sz.arms, obs: sz.obs / 2}
	}
	tenants := make([]*core.Tenant, sz.jobs)
	for i := range tenants {
		g, _ := shapedGP(small, rng)
		costs := make([]float64, small.arms)
		for k := range costs {
			costs[k] = 1
		}
		b := bandit.New(g, bandit.Config{Costs: costs, BetaArms: sz.jobs * small.arms, Mean0: 0.6})
		t := core.NewTenant(i, fmt.Sprintf("t%d", i), b)
		if arm, ucb := b.SelectArm(); arm >= 0 {
			if err := b.Observe(arm, 0.6+0.2*rng.Float64()); err == nil {
				t.RecordObservation(ucb, 0.7)
			}
		}
		tenants[i] = t
	}
	o.layer["core.pick_us"] = sampleMedian(1e3, func() time.Duration {
		p := core.NewHybridPicker()
		return perOp(sz.iters, func() { microSink += float64(p.Pick(tenants)) })
	})
}

func microParse(o *outcome, sz microSizes) {
	o.layer["dsl.parse_us"] = sampleMedian(1e3, func() time.Duration {
		return perOp(sz.iters*5, func() {
			p, _ := dsl.Parse(imageProgram)
			microSink += float64(p.Input.TotalElements())
		})
	})
	o.layer["dsl.parse_cached_ns"] = sampleMedian(1, func() time.Duration {
		return perOp(sz.iters*50, func() {
			p, _ := dsl.ParseCached(imageProgram)
			microSink += float64(p.Input.TotalElements())
		})
	})
	prog := dsl.MustParse(imageProgram)
	o.layer["templates.generate_us"] = sampleMedian(1e3, func() time.Duration {
		return perOp(sz.iters*5, func() {
			cands, _, _ := templates.Generate(prog, nil)
			microSink += float64(len(cands))
		})
	})
	o.layer["templates.generate_cached_us"] = sampleMedian(1e3, func() time.Duration {
		return perOp(sz.iters*5, func() {
			cands, _, _ := templates.GenerateCached(prog)
			microSink += float64(len(cands))
		})
	})
	ctrl, err := admission.NewController(admission.Config{
		Tenants: map[string]admission.Quota{"t": {Class: admission.ClassGuaranteed, RatePerSec: 1e9}},
	})
	if err != nil {
		panic(err) // a literal, valid configuration
	}
	o.layer["admission.admit_ns"] = sampleMedian(1, func() time.Duration {
		return perOp(sz.iters*50, func() { _ = ctrl.AdmitOp("t") })
	})
}

// microServer measures the scheduler's public entry points on an in-memory
// scheduler holding sz.jobs image jobs with ~60 % of every job observed.
func microServer(c *runCtx, o *outcome, sz microSizes) error {
	sc := server.NewScheduler(server.NewSimTrainer(cluster.NewPool(24, 0.9), serviceSeed(c.seed)), nil, "")
	var submits []time.Duration
	var firstJob string
	arms := 0
	for i := 0; i < sz.jobs; i++ {
		t0 := time.Now()
		job, err := sc.Submit(fmt.Sprintf("micro-%03d", i), imageProgram)
		submits = append(submits, time.Since(t0))
		if err != nil {
			return err
		}
		if i == 0 {
			firstJob = job.ID
		}
		arms = len(job.Candidates)
	}
	ds := make([]float64, len(submits))
	for i, d := range submits {
		ds[i] = float64(d.Nanoseconds()) / 1e3
	}
	o.layer["server.submit_us"] = median(ds)
	if _, err := sc.RunRounds(sz.jobs * arms * 6 / 10); err != nil {
		return err
	}

	var firstErr error
	fail := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	o.layer["server.pickwork_us"] = sampleMedian(1e3, func() time.Duration {
		return perOp(sz.iters, func() {
			leases, err := sc.PickWork(c.nproc)
			fail(err)
			for _, l := range leases {
				fail(sc.Release(l))
			}
		})
	})
	o.layer["server.posterior_deltas_us"] = sampleMedian(1e3, func() time.Duration {
		return perOp(sz.iters/4+1, func() { microSink += float64(len(sc.PosteriorDeltas(map[string]uint64{}))) })
	})
	o.layer["server.specgrant_us"] = sampleMedian(1e3, func() time.Duration {
		var total time.Duration
		granted := 0
		for _, d := range sc.PosteriorDeltas(map[string]uint64{}) {
			if d.Done || granted >= sz.iters {
				continue
			}
			closed := map[int]bool{}
			for _, k := range append(d.Tried, d.Leased...) {
				closed[k] = true
			}
			for arm := range d.UCB {
				if closed[arm] {
					continue
				}
				t0 := time.Now()
				l, err := sc.SpeculativeGrant(d.JobID, arm, d.Epoch)
				total += time.Since(t0)
				fail(err)
				if l == nil {
					fail(fmt.Errorf("speculative proposal %s/%d@%d was not granted", d.JobID, arm, d.Epoch))
				} else {
					fail(sc.Release(l))
					granted++
				}
				break
			}
		}
		if granted == 0 {
			return 0
		}
		return total / time.Duration(granted)
	})
	o.layer["server.complete_us"] = sampleMedian(1e3, func() time.Duration {
		var total time.Duration
		for i := 0; i < sz.iters/4+1; i++ {
			leases, err := sc.PickWork(1)
			fail(err)
			for _, l := range leases {
				acc, cost, err := sc.Trainer().Train(l.JobID, l.Candidate)
				fail(err)
				t0 := time.Now()
				fail(sc.Complete(l, acc, cost))
				total += time.Since(t0)
			}
		}
		return total / time.Duration(sz.iters/4+1)
	})

	in := pixelVector(imageInputs, 1)
	o.layer["server.feed_us"] = sampleMedian(1e3, func() time.Duration {
		return perOp(sz.iters, func() {
			_, err := sc.Feed(firstJob, in, []float64{1, 0})
			fail(err)
		})
	})
	sess, err := sc.NewInferSession(firstJob)
	if err != nil {
		return err
	}
	o.layer["server.infer_apply_ns"] = sampleMedian(1, func() time.Duration {
		return perOp(sz.iters*10, func() {
			out, err := sess.Apply(in)
			fail(err)
			microSink += out[0]
		})
	})
	batch := make([][]float64, 64)
	for i := range batch {
		batch[i] = pixelVector(imageInputs, i)
	}
	o.layer["server.infer_batch64_us"] = sampleMedian(1e3, func() time.Duration {
		return perOp(sz.iters/2+1, func() {
			outs, _, err := sc.InferBatch(firstJob, batch)
			fail(err)
			microSink += float64(len(outs))
		})
	})
	return firstErr
}

// microStorage measures the WAL directly: append latency in the shipping
// 2 ms window and in immediate mode, group-commit throughput with nproc
// appenders, then decode+replay and compaction of the log those appends
// left behind.
func microStorage(c *runCtx, o *outcome, sz microSizes) error {
	in := pixelVector(64, 3)
	appendP50 := func(window time.Duration, events int) (float64, error) {
		dir, err := os.MkdirTemp(c.workdir, "wal-")
		if err != nil {
			return 0, err
		}
		defer os.RemoveAll(dir)
		log, _, err := storage.OpenDirOptions(dir, storage.LogOptions{SyncInterval: window})
		if err != nil {
			return 0, err
		}
		defer log.Close()
		ms := make([]float64, events)
		for i := range ms {
			t0 := time.Now()
			if err := log.AppendExampleFed("job-0001", i, in, []float64{1, 0}); err != nil {
				return 0, err
			}
			ms[i] = float64(time.Since(t0).Nanoseconds()) / 1e6
		}
		return median(ms), nil
	}
	var err error
	if o.layer["storage.append_ms_p50"], err = appendP50(2*time.Millisecond, sz.iters); err != nil {
		return err
	}
	if o.layer["storage.append0_ms_p50"], err = appendP50(0, sz.iters*4); err != nil {
		return err
	}

	dir, err := os.MkdirTemp(c.workdir, "wal-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	log, _, err := storage.OpenDirOptions(dir, storage.LogOptions{})
	if err != nil {
		return err
	}
	if err := log.AppendJobSubmitted("job-0001", "micro", seriesProgram); err != nil {
		return err
	}
	var wg sync.WaitGroup
	errs := make(chan error, c.nproc)
	t0 := time.Now()
	for w := 0; w < c.nproc; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < sz.walEvents; i += c.nproc {
				if err := log.AppendExampleFed("job-0001", i, in, []float64{1, 0}); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	o.layer["storage.group_events_per_s"] = float64(sz.walEvents) / time.Since(t0).Seconds()
	select {
	case err := <-errs:
		return err
	default:
	}
	bytes := log.Stats().BytesWritten
	if err := log.Close(); err != nil {
		return err
	}

	var recover []float64
	for i := 0; i < microSamples; i++ {
		t0 := time.Now()
		l, rec, err := storage.OpenDirOptions(dir, storage.LogOptions{})
		d := time.Since(t0)
		if err != nil {
			return err
		}
		if rec.Events != sz.walEvents+1 {
			l.Close()
			return fmt.Errorf("replayed %d WAL events, appended %d", rec.Events, sz.walEvents+1)
		}
		recover = append(recover, d.Seconds())
		if i == microSamples-1 {
			t0 := time.Now()
			err = l.Compact(rec.Jobs, nil, nil, rec.Store, l.Seq())
			o.layer["storage.compact_s"] = time.Since(t0).Seconds()
		}
		l.Close()
		if err != nil {
			return err
		}
	}
	o.layer["storage.recover_mb_per_s"] = float64(bytes) / (1 << 20) / median(recover)
	o.layer["storage.recover_events_per_s"] = float64(sz.walEvents+1) / median(recover)
	return nil
}
