// Package repro's root benchmark harness: one testing.B benchmark per table
// and figure of the paper's evaluation section (§5). Each benchmark runs a
// reduced-repetition version of the corresponding experiment (wall-clock
// budget: ~seconds per figure) and reports the headline quantities as custom
// metrics, so `go test -bench=. -benchmem` regenerates the whole evaluation:
//
//	Figure  8 — dataset statistics table
//	Figure  9 — end-to-end vs MOSTCITED/MOSTRECENT (+speedup metric)
//	Figure 10 — cost-oblivious multi-tenant comparison
//	Figure 11 — cost-aware multi-tenant comparison
//	Figure 12 — model-correlation / noise grid
//	Figure 13 — cost-awareness lesion
//	Figure 14 — kernel training-set size
//	Figure 15 — hybrid lesion (+crossover metric)
//
// cmd/experiments prints the corresponding full tables.
package repro

import (
	"context"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/easeml"
	"repro/internal/admission"
	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/experiments"
	"repro/internal/fleet"
	"repro/internal/gp"
	"repro/internal/lru"
	"repro/internal/server"
)

// benchCfg trades repetitions for benchmark wall-clock; cmd/experiments
// runs the full protocol.
var benchCfg = experiments.FigureConfig{RunsSmall: 10, RunsLarge: 2, TestUsers: 10, Seed: 1}

// BenchmarkEngine pits the async multi-device execution engine against the
// serialized single-device strategy on the same job set and seed: per worker
// count it reports the virtual-time makespan speedup (the §5.3.2 strategy
// comparison on an α=0.35 pool) and the wall-clock speedup (each simulated
// training sleeps TrainDelay, so engine concurrency is real). Final best
// models must be identical between the two runs — the engine changes the
// schedule, never the answers.
func BenchmarkEngine(b *testing.B) {
	const (
		gpus       = 24
		alpha      = 0.35
		seed       = 11
		trainDelay = 200 * time.Microsecond
	)
	jobs := []string{
		"{input: {[Tensor[32, 32, 3]], []}, output: {[Tensor[3]], []}}",
		"{input: {[Tensor[16, 16, 3]], []}, output: {[Tensor[2]], []}}",
		"{input: {[Tensor[6]], [next]}, output: {[Tensor[2]], []}}",
	}
	submitAll := func(svc *easeml.Service) []string {
		ids := make([]string, len(jobs))
		for i, prog := range jobs {
			job, err := svc.Submit(fmt.Sprintf("bench-%d", i), prog)
			if err != nil {
				b.Fatal(err)
			}
			ids[i] = job.Name
		}
		return ids
	}
	for _, workers := range []int{4, 8, 24} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			var serialWall, engineWall time.Duration
			var virtualSpeedup, utilization float64
			for i := 0; i < b.N; i++ {
				serial := easeml.NewService(easeml.ServiceConfig{
					GPUs: gpus, Seed: seed, Alpha: alpha, TrainDelay: trainDelay,
				})
				serialIDs := submitAll(serial)
				t0 := time.Now()
				if _, err := serial.RunRounds(1 << 20); err != nil {
					b.Fatal(err)
				}
				serialWall += time.Since(t0)

				eng := easeml.NewService(easeml.ServiceConfig{
					GPUs: gpus, Seed: seed, Alpha: alpha, Workers: workers, TrainDelay: trainDelay,
				})
				engIDs := submitAll(eng)
				sum, err := eng.DrainEngine(context.Background())
				if err != nil {
					b.Fatal(err)
				}
				engineWall += sum.Wall
				virtualSpeedup = sum.Speedup
				utilization = sum.Utilization

				// The engine must not change the answers.
				for j := range serialIDs {
					sa, err := serial.Status(serialIDs[j])
					if err != nil {
						b.Fatal(err)
					}
					sb, err := eng.Status(engIDs[j])
					if err != nil {
						b.Fatal(err)
					}
					if sa.Best == nil || sb.Best == nil || sa.Best.Name != sb.Best.Name ||
						sa.Best.Accuracy != sb.Best.Accuracy {
						b.Fatalf("job %d best diverged: serial %+v vs engine %+v", j, sa.Best, sb.Best)
					}
				}
			}
			b.ReportMetric(virtualSpeedup, "virtual-speedup")
			b.ReportMetric(float64(serialWall)/float64(engineWall), "wall-speedup")
			b.ReportMetric(utilization, "utilization")
		})
	}
}

// BenchmarkSchedulerMultiTenant measures end-to-end scheduling throughput
// — pick, train (instant simulated run), observe, record — as the tenant
// count scales from 1 to 64 under the default HYBRID picker wrapped in
// class-weighted fair sharing (tenants cycle through guaranteed /
// standard / best-effort). Every tenant submits one job; the serialized
// loop drains the whole job set. rounds/s is the headline metric.
func BenchmarkSchedulerMultiTenant(b *testing.B) {
	const program = "{input: {[Tensor[6]], [next]}, output: {[Tensor[2]], []}}"
	classes := []string{"guaranteed", "standard", "best-effort"}
	for _, tenants := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("tenants=%d", tenants), func(b *testing.B) {
			totalRounds := 0
			var busy time.Duration
			for i := 0; i < b.N; i++ {
				quotas := make(map[string]easeml.TenantQuota, tenants)
				names := make([]string, tenants)
				for u := 0; u < tenants; u++ {
					names[u] = fmt.Sprintf("tenant-%03d", u)
					quotas[names[u]] = easeml.TenantQuota{Class: classes[u%len(classes)]}
				}
				svc := easeml.NewService(easeml.ServiceConfig{Seed: 17, Quotas: quotas})
				for _, name := range names {
					if _, err := svc.Submit(name, program); err != nil {
						b.Fatal(err)
					}
				}
				start := time.Now()
				ran, err := svc.RunRounds(1 << 20)
				if err != nil {
					b.Fatal(err)
				}
				busy += time.Since(start)
				totalRounds += ran
			}
			if totalRounds == 0 || busy <= 0 {
				b.Fatal("benchmark ran no rounds")
			}
			b.ReportMetric(float64(totalRounds)/busy.Seconds(), "rounds/s")
			b.ReportMetric(float64(busy.Nanoseconds())/float64(totalRounds), "ns/round")
		})
	}
}

// BenchmarkSimulationStep measures one global step of Algorithm 2 at the
// paper's largest operating point: ten 179CLASSIFIER tenants (179 arms each,
// one shared prior), HYBRID user picking, cost-aware GP-UCB, run to half the
// cost budget as §5.3 does. One op is one Simulation.Step — pick a tenant,
// pick its arm, condition its GP, refresh its surface; a simulation that
// reaches the budget is rebuilt with the timer stopped. B/op is pinned in
// BENCH_allocs.json beside allocs/op: the step is GC-bound, so bytes per
// step × steps per second is what the process's RSS follows.
func BenchmarkSimulationStep(b *testing.B) {
	d := dataset.Classifier179()
	train, test := d.Split(10, rand.New(rand.NewSource(1)))
	env := core.NewMatrixEnv(d, test)
	cfg := core.SimConfig{
		Env:         env,
		ModelPicker: core.UCBModelPicker{},
		Kernel:      gp.RBF{Variance: 0.05, LengthScale: 1},
		Features:    d.QualityVectors(train),
		CostAware:   true,
		PriorMean:   0.7,
	}
	budget := 0.5 * env.TotalCost()
	var sim *core.Simulation
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if sim == nil || sim.CumulativeCost() >= budget {
			b.StopTimer()
			cfg.UserPicker = core.NewHybridPicker()
			var err error
			if sim, err = core.NewSimulation(cfg); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
		if ok, err := sim.Step(); err != nil || !ok {
			b.Fatalf("step %d: ok=%v err=%v", sim.Steps(), ok, err)
		}
	}
}

// BenchmarkFeedSaturation measures acked ingest throughput: 8 concurrent
// feeders split b.N examples against a durable service, and every example
// is fsynced to the WAL before the call carrying it returns. group-commit
// feeds one example per call, so the appends arriving during one fsync
// batch into the next; feed-batch feeds 16 examples per FeedBatch call,
// one commit each. acked-events/s is the headline metric.
func BenchmarkFeedSaturation(b *testing.B) {
	const (
		feeders = 8
		batch   = 16
		program = "{input: {[Tensor[4]], [next]}, output: {[Tensor[2]], []}}"
	)
	for _, mode := range []struct {
		name string
		per  int // examples per call
	}{
		{"group-commit", 1},
		{"feed-batch", batch},
	} {
		b.Run(mode.name, func(b *testing.B) {
			svc, err := easeml.OpenService(easeml.ServiceConfig{GPUs: 4, Seed: 7, DataDir: b.TempDir()})
			if err != nil {
				b.Fatal(err)
			}
			defer svc.Close()
			job, err := svc.Submit("sat", program)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			var next atomic.Int64
			var wg sync.WaitGroup
			for g := 0; g < feeders; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					inputs, outputs := make([][]float64, 0, mode.per), make([][]float64, 0, mode.per)
					for {
						end := next.Add(int64(mode.per))
						start := end - int64(mode.per)
						if start >= int64(b.N) {
							return
						}
						inputs, outputs = inputs[:0], outputs[:0]
						for i := start; i < min(end, int64(b.N)); i++ {
							inputs = append(inputs, []float64{float64(i), 1, 2, 3})
							outputs = append(outputs, []float64{0, 1})
						}
						if _, err := svc.FeedBatch(job.Name, inputs, outputs); err != nil {
							b.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()
			b.StopTimer()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "acked-events/s")
		})
	}
}

// BenchmarkBulkFeedHTTP measures the bulk-load path end to end over real
// HTTP: one op is one Feed of 100 image examples (768 floats each, pixel
// values k/255) through internal/client into a durable service, answered
// after its WAL fsync — client tensor-body encode, server body decode, WAL
// framing and commit, store insert. examples/s is the headline; the allocation gate
// pins allocations and bytes per call, which move with every copy of the
// floats on that path.
func BenchmarkBulkFeedHTTP(b *testing.B) {
	const (
		perCall = 100
		program = "{input: {[Tensor[16, 16, 3]], []}, output: {[Tensor[2]], []}}"
	)
	svc, err := easeml.OpenService(easeml.ServiceConfig{GPUs: 4, Seed: 7, DataDir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	defer svc.Close()
	job, err := svc.Submit("bulk", program)
	if err != nil {
		b.Fatal(err)
	}
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	cl := client.New(srv.URL)
	inputs, outputs := make([][]float64, perCall), make([][]float64, perCall)
	for k := range inputs {
		inputs[k] = make([]float64, 16*16*3)
		for i := range inputs[k] {
			inputs[k][i] = float64((i*7+k*13)%256) / 255
		}
		outputs[k] = []float64{float64(k % 2), float64(1 - k%2)}
	}
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ids, err := cl.Feed(ctx, job.Name, inputs, outputs)
		if err != nil {
			b.Fatal(err)
		}
		if len(ids) != perCall {
			b.Fatalf("%d ids for %d examples", len(ids), perCall)
		}
	}
	b.StopTimer() // the deferred Close compacts the whole store
	b.ReportMetric(float64(b.N*perCall)/b.Elapsed().Seconds(), "examples/s")
}

// BenchmarkGrantScaling measures what the number of tenants costs one lease:
// J jobs in three service classes by quota (35 candidates each, six observed
// rounds per job, four leases standing), and one op is the steady state of
// every executor — settle the oldest lease, lease one more. The two halves
// are timed apart: grant-ns/lease is Grant(1, 0), the coordinator's critical
// section; settle-ns/lease is Complete, which carries the job's posterior
// refresh. Training (simulated) is outside both. A scheduler that runs out
// of candidates is rebuilt with the timer stopped.
func BenchmarkGrantScaling(b *testing.B) {
	const (
		program  = "{input: {[Tensor[16, 16, 3]], []}, output: {[Tensor[2]], []}}" // 35 candidates
		warmup   = 6
		standing = 4
	)
	classes := []admission.Class{admission.ClassGuaranteed, admission.ClassStandard, admission.ClassBestEffort}
	for _, jobs := range []int{64, 256, 1024, 4096} {
		b.Run(fmt.Sprintf("J=%d", jobs), func(b *testing.B) {
			quotas := make(map[string]admission.Quota, jobs)
			for i := 0; i < jobs; i++ {
				quotas[fmt.Sprintf("scale-%04d", i)] = admission.Quota{Class: classes[i%len(classes)]}
			}
			build := func() (*server.Scheduler, []*server.Lease) {
				ctrl, err := admission.NewController(admission.Config{Tenants: quotas})
				if err != nil {
					b.Fatal(err)
				}
				sc := server.NewScheduler(server.NewSimTrainer(cluster.NewPool(8, 0.9), 47), ctrl, "http://bench:9000")
				for i := 0; i < jobs; i++ {
					if _, err := sc.Submit(fmt.Sprintf("scale-%04d", i), program); err != nil {
						b.Fatal(err)
					}
				}
				if _, err := sc.RunRounds(jobs * warmup); err != nil {
					b.Fatal(err)
				}
				held, err := sc.Grant(standing, 0)
				if err != nil || len(held) != standing {
					b.Fatalf("standing set: %d leases, want %d (%v)", len(held), standing, err)
				}
				return sc, held
			}
			sc, held := build()
			var grant, settle time.Duration
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				l := held[0]
				held = held[1:]
				acc, cost, err := sc.Trainer().Train(l.JobID, l.Candidate)
				if err != nil {
					b.Fatal(err)
				}
				t0 := time.Now()
				if err := sc.Complete(l, acc, cost); err != nil {
					b.Fatal(err)
				}
				t1 := time.Now()
				next, err := sc.Grant(1, 0)
				grant += time.Since(t1)
				settle += t1.Sub(t0)
				if err != nil {
					b.Fatal(err)
				}
				if len(next) == 0 {
					b.StopTimer()
					sc, held = build()
					b.StartTimer()
					continue
				}
				held = append(held, next...)
			}
			b.StopTimer()
			b.ReportMetric(float64(grant.Nanoseconds())/float64(b.N), "grant-ns/lease")
			b.ReportMetric(float64(settle.Nanoseconds())/float64(b.N), "settle-ns/lease")
		})
	}
}

// BenchmarkFleetLeaseThroughput measures coordinator lease-grant
// throughput: 256 jobs × 35 candidates, 8 registered workers driven
// serially in-process in a steady-state grant/release cycle (completions
// report a retryable failure, so candidates re-enter selection and the
// posterior never drains — the same exchange trick as internal/server's
// BenchmarkPickWorkManyJobs). Every batch takes the full Grant path. Only
// the coordinator's Lease call is on the clock. It reports granted-leases/s
// and the mean, median, 90th and 99th percentile and maximum of each
// call's time per lease it granted: one mean over 2,000 calls cannot tell
// a 2× change from a few calls a neighbour delayed, and the tail shows
// those few.
func BenchmarkFleetLeaseThroughput(b *testing.B) {
	const (
		jobs    = 256
		program = "{input: {[Tensor[16, 16, 3]], []}, output: {[Tensor[2]], []}}" // 35 candidates
		workers = 8
		devices = 4
	)
	b.Run("poll", func(b *testing.B) {
		b.ReportAllocs()
		sc := server.NewScheduler(server.NewSimTrainer(cluster.NewPool(8, 0.9), 33), nil, "")
		for i := 0; i < jobs; i++ {
			if _, err := sc.Submit(fmt.Sprintf("fleet-%03d", i), program); err != nil {
				b.Fatal(err)
			}
		}
		// Observe a slice of every job so the surfaces carry history.
		if _, err := sc.RunRounds(jobs * 4); err != nil {
			b.Fatal(err)
		}
		sc.SetRetryBudget(1 << 30) // the steady-state releases below never abandon
		coord := fleet.NewCoordinator(sc, fleet.CoordinatorConfig{Seed: 33})
		ids := make([]string, workers)
		for i := range ids {
			ids[i] = coord.Register(fleet.RegisterRequest{Name: fmt.Sprintf("bench-%d", i), Devices: devices}).WorkerID
		}
		granted := 0
		var leaseDur time.Duration
		perGrant := make([]time.Duration, 0, b.N) // each call's time per lease granted
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			id := ids[i%workers]
			t0 := time.Now()
			resp, err := coord.Lease(fleet.LeaseRequest{WorkerID: id, Max: devices})
			d := time.Since(t0)
			leaseDur += d
			if err != nil {
				b.Fatal(err)
			}
			if n := len(resp.Leases); n > 0 {
				perGrant = append(perGrant, d/time.Duration(n))
			}
			granted += len(resp.Leases)
			for _, wl := range resp.Leases {
				if _, err := coord.Complete(fleet.CompleteRequest{
					WorkerID: id, LeaseID: wl.LeaseID, Error: "bench: steady-state release",
				}); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.StopTimer()
		if granted == 0 || leaseDur <= 0 {
			b.Fatal("benchmark granted no leases")
		}
		b.ReportMetric(float64(granted)/leaseDur.Seconds(), "granted-leases/s")
		b.ReportMetric(float64(leaseDur.Nanoseconds())/float64(granted), "ns/grant")
		slices.Sort(perGrant)
		b.ReportMetric(float64(perGrant[len(perGrant)/2].Nanoseconds()), "p50-ns/grant")
		b.ReportMetric(float64(perGrant[len(perGrant)*9/10].Nanoseconds()), "p90-ns/grant")
		b.ReportMetric(float64(perGrant[len(perGrant)*99/100].Nanoseconds()), "p99-ns/grant")
		b.ReportMetric(float64(perGrant[len(perGrant)-1].Nanoseconds()), "max-ns/grant")
	})
}

// BenchmarkFigure12Correlation reports strong vs weak model correlation at
// α=1: the paper finds stronger correlation helps every scheduler
// (§5.3.1). It asserts nothing: on seed 1 both worst-case losses are
// already 0 at mid-budget, and earlier in the budget the weakly correlated
// dataset's reaches 0 first. The other §5 figures are TestFigure* tests in
// internal/experiments.
func BenchmarkFigure12Correlation(b *testing.B) {
	var strong, weak experiments.Result
	for i := 0; i < b.N; i++ {
		var err error
		strong, err = experiments.Run(experiments.Protocol{
			Dataset:   dataset.Syn(0.5, 1.0),
			TestUsers: benchCfg.TestUsers,
			Runs:      benchCfg.RunsLarge,
			Seed:      benchCfg.Seed,
		}, []experiments.Strategy{experiments.EaseML()})
		if err != nil {
			b.Fatal(err)
		}
		weak, err = experiments.Run(experiments.Protocol{
			Dataset:   dataset.Syn(0.01, 1.0),
			TestUsers: benchCfg.TestUsers,
			Runs:      benchCfg.RunsLarge,
			Seed:      benchCfg.Seed,
		}, []experiments.Strategy{experiments.EaseML()})
		if err != nil {
			b.Fatal(err)
		}
	}
	// Mid-budget worst-case losses (the Figure 12 panels).
	mid := len(strong.Series[0].Worst) / 2
	b.ReportMetric(strong.Series[0].Worst[mid], "strongcorr-worst@50")
	b.ReportMetric(weak.Series[0].Worst[mid], "weakcorr-worst@50")
}

// BenchmarkInferQPS measures the online-serving path over real HTTP: one
// trained job behind httptest, driven through internal/client. per-request
// is the seed-era serving story (one POST per prediction); batch and
// stream answer the same inputs through POST /jobs/{id}/infer/batch and
// the NDJSON streaming endpoint. The setup also replays a repeated-program
// submit workload and records its program-cache hit rate (at least 49 of
// 50 lookups: only the process's first parse of the program misses); the
// acceptance gate is batch ≥ 3× per-request QPS and hit rate > 0.9.
func BenchmarkInferQPS(b *testing.B) {
	const (
		batchSize = 64
		tsProg    = "{input: {[Tensor[4]], [next]}, output: {[Tensor[2]], []}}"
	)

	// Repeated-program workload: 50 tenants, one program.
	hits0, misses0 := lru.Lookups("program")
	svc := easeml.NewService(easeml.ServiceConfig{GPUs: 4, Seed: 7})
	var jobID string
	for i := 0; i < 50; i++ {
		job, err := svc.Submit(fmt.Sprintf("bench-tenant-%d", i), tsProg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			jobID = job.Name
		}
	}
	hits, misses := lru.Lookups("program")
	h, m := hits-hits0, misses-misses0
	hitRate := float64(h) / float64(h+m)
	if _, err := svc.RunRounds(2); err != nil {
		b.Fatal(err)
	}
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	cl := client.New(srv.URL)
	ctx := context.Background()
	inputs := make([][]float64, batchSize)
	for i := range inputs {
		inputs[i] = []float64{float64(i), 1, 2, 3}
	}

	var perRequestQPS, batchQPS float64
	b.Run("per-request", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := cl.Infer(ctx, jobID, inputs[i%batchSize]); err != nil {
				b.Fatal(err)
			}
		}
		perRequestQPS = float64(b.N) / b.Elapsed().Seconds()
		b.ReportMetric(perRequestQPS, "qps")
	})
	b.Run("batch", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			resp, err := cl.InferBatch(ctx, jobID, inputs)
			if err != nil {
				b.Fatal(err)
			}
			if len(resp.Outputs) != batchSize {
				b.Fatalf("%d outputs", len(resp.Outputs))
			}
		}
		batchQPS = float64(b.N*batchSize) / b.Elapsed().Seconds()
		b.ReportMetric(batchQPS, "qps")
	})
	b.Run("stream", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			n := 0
			if _, err := cl.InferStream(ctx, jobID, inputs, func(int, []float64) error {
				n++
				return nil
			}); err != nil {
				b.Fatal(err)
			}
			if n != batchSize {
				b.Fatalf("%d stream lines", n)
			}
		}
		b.ReportMetric(float64(b.N*batchSize)/b.Elapsed().Seconds(), "qps")
	})

	if perRequestQPS > 0 && batchQPS > 0 {
		b.ReportMetric(batchQPS/perRequestQPS, "batch-speedup")
		b.ReportMetric(hitRate, "plan-cache-hit-rate")
	}
}
