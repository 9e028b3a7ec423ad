package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"syscall"
	"time"

	"repro/easeml"
	"repro/internal/client"
	"repro/internal/server"
	"repro/internal/telemetry"
)

// The two declarative programs every service workload mixes: the
// 35-candidate image program and the 4-candidate time-series program.
const (
	imageProgram  = "{input: {[Tensor[16, 16, 3]], []}, output: {[Tensor[2]], []}}"
	seriesProgram = "{input: {[Tensor[6]], [next]}, output: {[Tensor[2]], []}}"
	imageInputs   = 16 * 16 * 3
	seriesInputs  = 6
)

var tenantClasses = []string{"guaranteed", "standard", "best-effort"}

// runCtx is what one (workload, run) gets: the seed every input is derived
// from, how long to measure, whether to trace, and a scratch directory
// inside the checkout.
type runCtx struct {
	seed    int64
	seconds float64
	smoke   bool
	nproc   int
	workdir string
	tr      *tracer // nil in the untraced run
}

func (c *runCtx) traced() bool { return c.tr != nil }

// budget is the length of the timed phase.
func (c *runCtx) budget() time.Duration {
	return time.Duration(c.seconds * float64(time.Second))
}

// outcome is what a workload hands back: the shared end-to-end measurements,
// its per-layer observations, and every output check that failed.
type outcome struct {
	setupS []float64 // one sample per set-up performed; the median is reported
	// The timed phase is cut into slices of comparable work (a pass over the
	// splits, a drain, a second of traffic). Each slice gives one sample of
	// every timing statistic and the run reports the median across slices:
	// this box shares its cores and caches with other tenants, and a slice
	// that a neighbour disturbed must not decide the run's number.
	rate      []float64 // ops per second, per slice
	cpuPerOp  []float64 // process user+sys CPU ms per op, per slice
	p50, p95  []float64 // latency percentiles (ms) within each slice
	ops       float64   // operations completed in the timed phase
	rssMiB    float64   // ru_maxrss when the timed phases ended, before the output checks
	latN      int       // latency samples behind p50/p95
	attempted int64
	failed    int64
	problems  []string           // failed output checks
	layer     map[string]float64 // per-layer metrics measured by the workload
	notes     []string           // report lines (cycle decomposition, layer table)
}

func newOutcome() *outcome { return &outcome{layer: map[string]float64{}} }

// addSlice records one slice of the timed phase: its throughput and CPU per
// op (skipped for an empty slice) and its latency percentiles.
func (o *outcome) addSlice(ops, wallS, cpuMS float64, latMS []float64) {
	if ops > 0 && wallS > 0 {
		o.rate = append(o.rate, ops/wallS)
		o.cpuPerOp = append(o.cpuPerOp, cpuMS/ops)
	}
	o.addLatencies(latMS)
}

// addLatencies records the latency percentiles of one slice.
func (o *outcome) addLatencies(latMS []float64) {
	if len(latMS) > 0 {
		o.p50 = append(o.p50, percentile(latMS, 0.50))
		o.p95 = append(o.p95, percentile(latMS, 0.95))
		o.latN += len(latMS)
	}
}

func (o *outcome) problemf(format string, args ...any) {
	if len(o.problems) < 20 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

// cpuNow returns the process's user+sys CPU time so far.
func cpuNow() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMiB is ru_maxrss of this process (KiB on Linux).
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// procProbe brackets a timed phase with runtime.MemStats reads (they stop
// the world, so never inside the phase).
type procProbe struct {
	before runtime.MemStats
	peakG  int
}

func startProbe() *procProbe {
	p := &procProbe{peakG: runtime.NumGoroutine()}
	runtime.ReadMemStats(&p.before)
	return p
}

func (p *procProbe) noteGoroutines() {
	if g := runtime.NumGoroutine(); g > p.peakG {
		p.peakG = g
	}
}

// finish writes the phase's runtime deltas into the outcome's proc.* metrics.
func (p *procProbe) finish(o *outcome, ops float64) {
	p.noteGoroutines()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	o.layer["proc.gc_pause_ms"] = float64(after.PauseTotalNs-p.before.PauseTotalNs) / 1e6
	o.layer["proc.alloc_mb_per_kop"] = ratio(float64(after.TotalAlloc-p.before.TotalAlloc)/(1<<20), ops/1000)
	o.layer["proc.heap_live_mb_end"] = float64(after.HeapAlloc) / (1 << 20)
	o.layer["proc.goroutines_peak"] = float64(p.peakG)
}

// progressSampler turns a completion counter into slices and per-operation
// times without touching the product: it polls count() every millisecond,
// notes when the counter crosses each multiple of chunk (the time a chunk
// took, divided by its size, is one latency sample — continuous-valued, so
// its percentiles do not step the way fixed-window counts do), and every
// sliceEvery closes a slice with the ops and CPU it covered.
type progressSampler struct {
	count      func() int64
	chunk      int64
	sliceEvery time.Duration // 0: the whole sampled interval is one slice
	probe      *procProbe

	stop chan struct{}
	done chan struct{}

	o       *outcome
	started time.Time
}

func startSampler(o *outcome, count func() int64, chunk int64, sliceEvery time.Duration, probe *procProbe) *progressSampler {
	s := &progressSampler{count: count, chunk: chunk, sliceEvery: sliceEvery, probe: probe, o: o,
		stop: make(chan struct{}), done: make(chan struct{}), started: time.Now()}
	go s.loop()
	return s
}

func (s *progressSampler) loop() {
	defer close(s.done)
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	sliceStart, sliceCount, sliceCPU := s.started, s.count(), cpuNow()
	var lat []float64
	closeSlice := func(now time.Time, c int64) {
		cpu := cpuNow()
		s.o.addSlice(float64(c-sliceCount), now.Sub(sliceStart).Seconds(), float64((cpu-sliceCPU).Microseconds())/1000, lat)
		sliceStart, sliceCount, sliceCPU, lat = now, c, cpu, nil
	}
	// prevT/prevC are the previous poll; a chunk boundary crossed between
	// two polls is placed by linear interpolation, so a sample's resolution
	// is not the polling period.
	prevT, prevC := s.started, sliceCount
	last, next := s.started, sliceCount+s.chunk
	for n := 1; ; n++ {
		select {
		case <-s.stop:
			closeSlice(time.Now(), s.count())
			return
		case now := <-tick.C:
			c := s.count()
			for c >= next {
				cross := prevT.Add(time.Duration(float64(now.Sub(prevT)) * float64(next-prevC) / float64(c-prevC)))
				lat = append(lat, float64(cross.Sub(last).Nanoseconds())/1e6/float64(s.chunk))
				last = cross
				next += s.chunk
			}
			prevT, prevC = now, c
			if s.sliceEvery > 0 && now.Sub(sliceStart) >= s.sliceEvery {
				closeSlice(now, c)
			}
			if n%64 == 0 && s.probe != nil {
				s.probe.noteGoroutines()
			}
		}
	}
}

// finish stops the sampler; the last (possibly short) slice is closed and
// every slice is in the outcome.
func (s *progressSampler) finish() {
	close(s.stop)
	<-s.done
}

// jobSpec is one generated job of a service workload.
type jobSpec struct {
	Tenant  string
	Program string
	Inputs  int // input vector length of the program
}

// jobMix generates n jobs from the seed. The composition is fixed — programs
// alternate image / time-series, tenant classes cycle through the three
// classes — so every seed asks for the same amount of work; the seed decides
// the submission order (and with it the job ids each program lands on, hence
// every simulated training surface). The tenant→class table is returned as
// service quotas.
func jobMix(seed int64, n int) ([]jobSpec, map[string]easeml.TenantQuota) {
	rng := rand.New(rand.NewSource(seed ^ 0x6a6f6273))
	jobs := make([]jobSpec, n)
	quotas := make(map[string]easeml.TenantQuota, n)
	for i, k := range rng.Perm(n) {
		j := jobSpec{Tenant: fmt.Sprintf("tenant-%03d", k), Program: seriesProgram, Inputs: seriesInputs}
		if k%2 == 0 {
			j.Program, j.Inputs = imageProgram, imageInputs
		}
		quotas[j.Tenant] = easeml.TenantQuota{Class: tenantClasses[k%len(tenantClasses)]}
		jobs[i] = j
	}
	return jobs, quotas
}

// serviceSeed derives the product's training-surface seed from the
// benchmark seed (the product receives only generated inputs).
func serviceSeed(seed int64) int64 { return 1000 + seed%100000 }

// reference is what a serialized service (RunRounds to exhaustion, no
// engine, no fleet, no WAL) learns on the same jobs and seed: the accuracy
// of every (job, candidate) and each job's best. Training results are a pure
// function of (seed, job id, candidate), so any execution path must agree
// with it model for model.
type reference struct {
	accuracy map[string]map[string]float64 // job id → candidate → accuracy
	best     map[string]string
	total    int // candidates across all jobs
}

func buildReference(seed int64, jobs []jobSpec, quotas map[string]easeml.TenantQuota) (*reference, error) {
	svc, err := easeml.OpenService(easeml.ServiceConfig{Seed: serviceSeed(seed), Quotas: quotas})
	if err != nil {
		return nil, err
	}
	ref := &reference{accuracy: map[string]map[string]float64{}, best: map[string]string{}}
	var ids []string
	for _, j := range jobs {
		job, err := svc.Submit(j.Tenant, j.Program)
		if err != nil {
			return nil, err
		}
		ids = append(ids, job.Name)
		ref.total += len(job.Candidates)
	}
	if _, err := svc.RunRounds(1 << 30); err != nil {
		return nil, err
	}
	for _, id := range ids {
		st, err := svc.Status(id)
		if err != nil {
			return nil, err
		}
		if st.Trained != st.NumCandidates || st.Best == nil {
			return nil, fmt.Errorf("reference service left %s at %d/%d models", id, st.Trained, st.NumCandidates)
		}
		acc := make(map[string]float64, len(st.Models))
		for _, m := range st.Models {
			acc[m.Name] = m.Accuracy
		}
		ref.accuracy[id] = acc
		ref.best[id] = st.Best.Name
	}
	return ref, nil
}

// checkAgainst verifies one job's status against the reference: no model
// trained twice, every recorded accuracy equal to the serialized service's,
// the best model the arg-max of what was trained — and, when drained, every
// candidate trained exactly once with the reference's best.
func (ref *reference) checkAgainst(o *outcome, st server.Status, drained bool) {
	want := ref.accuracy[st.ID]
	if want == nil {
		o.problemf("%s: not in the reference service", st.ID)
		return
	}
	seen := make(map[string]bool, len(st.Models))
	bestAcc := -1.0
	for _, m := range st.Models {
		if seen[m.Name] {
			o.problemf("%s: %s trained twice", st.ID, m.Name)
		}
		seen[m.Name] = true
		if acc, ok := want[m.Name]; !ok || acc != m.Accuracy {
			o.problemf("%s/%s: accuracy %v, serialized service has %v", st.ID, m.Name, m.Accuracy, acc)
		}
		if m.Accuracy > bestAcc {
			bestAcc = m.Accuracy
		}
	}
	if len(st.Models) > 0 && (st.Best == nil || st.Best.Accuracy != bestAcc) {
		o.problemf("%s: best %+v is not the arg-max %v of its trained models", st.ID, st.Best, bestAcc)
	}
	if drained {
		if len(st.Models) != len(want) {
			o.problemf("%s: %d of %d candidates trained after drain", st.ID, len(st.Models), len(want))
		}
		if st.Best == nil || st.Best.Name != ref.best[st.ID] {
			o.problemf("%s: best after drain differs from the serialized service's %s", st.ID, ref.best[st.ID])
		}
	}
}

// httpService is a service hosted the way cmd/easeml-server hosts it: the
// facade's handler on a loopback TCP listener, reached through
// internal/client over a transport capped at nproc connections.
type httpService struct {
	svc   *easeml.Service
	dir   string
	url   string
	hs    *http.Server
	hc    *http.Client
	cl    *client.Client
	http  *boundaryStats // handler-side counts (traced run)
	wire  *boundaryStats // transport-side counts (traced run)
	cycle *cycleTable
}

// openHTTPService boots cfg (DataDir is created under the run's scratch
// directory when durable is set) and serves it on 127.0.0.1:0.
func openHTTPService(c *runCtx, cfg easeml.ServiceConfig, durable, fleetCycles bool) (*httpService, error) {
	h := &httpService{http: &boundaryStats{}, wire: &boundaryStats{}}
	if durable {
		dir, err := os.MkdirTemp(c.workdir, "data-")
		if err != nil {
			return nil, err
		}
		h.dir = dir
		cfg.DataDir = dir
		cfg.WALSyncInterval = 2 * time.Millisecond // the easeml-server flag default
	}
	svc, err := easeml.OpenService(cfg)
	if err != nil {
		return nil, err
	}
	h.svc = svc
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Close()
		return nil, err
	}
	handler := svc.Handler()
	var rt http.RoundTripper = &http.Transport{
		MaxConnsPerHost:     c.nproc,
		MaxIdleConnsPerHost: c.nproc,
		IdleConnTimeout:     time.Minute,
	}
	if c.traced() {
		handler = traceHandler(c.tr, h.http, handler)
		tt := &tracingTransport{next: rt, tr: c.tr, stats: h.wire}
		if fleetCycles {
			h.cycle = newCycleTable()
			tt.cycles = h.cycle
		}
		rt = tt
	}
	h.hs = &http.Server{Handler: handler}
	go func() { _ = h.hs.Serve(ln) }()
	h.url = "http://" + ln.Addr().String()
	h.hc = &http.Client{Transport: rt}
	h.cl = client.New(h.url, client.WithHTTPClient(h.hc), client.WithTimeout(30*time.Second))
	return h, nil
}

// close shuts the listener, the service and (when durable) removes the data
// directory.
func (h *httpService) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	_ = h.hs.Shutdown(ctx)
	cancel()
	h.hc.CloseIdleConnections()
	_ = h.svc.Close()
	if h.dir != "" {
		_ = os.RemoveAll(h.dir)
	}
}

// scrape reads GET /metrics over the service's own client transport and
// reports how long the scrape took.
func (h *httpService) scrape() (promSample, time.Duration, error) {
	t0 := time.Now()
	resp, err := h.hc.Get(h.url + "/metrics")
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, 0, err
	}
	return parseProm(bytes.NewReader(body)), time.Since(t0), nil
}

// scrapeInProcess reads the process-global registry directly — the source
// for workloads that serve no HTTP at all.
func scrapeInProcess() (promSample, time.Duration) {
	t0 := time.Now()
	var buf bytes.Buffer
	telemetry.Default().WritePrometheus(&buf)
	return parseProm(&buf), time.Since(t0)
}

// copyDir copies a data directory file by file: taken while the service is
// still open (quiesced, not closed) it is the image a crash would leave.
func copyDir(src, dst string) (int64, error) {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return 0, err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		n, err := copyFile(filepath.Join(src, e.Name()), filepath.Join(dst, e.Name()))
		total += n
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// copyFile streams one file, so copying an image does not pass through the
// heap (peak RSS is a reported metric).
func copyFile(src, dst string) (int64, error) {
	in, err := os.Open(src)
	if err != nil {
		return 0, err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return 0, err
	}
	n, err := io.Copy(out, in)
	if cerr := out.Close(); err == nil {
		err = cerr
	}
	return n, err
}

// recoverImage opens a fresh copy of a crash image and checks that every
// job's status equals the live service's. It returns the OpenService wall
// time and what the boot replayed.
func recoverImage(c *runCtx, o *outcome, image string, cfg easeml.ServiceConfig, live map[string]server.Status) (time.Duration, easeml.RecoveryInfo, error) {
	dir, err := os.MkdirTemp(c.workdir, "recover-")
	if err != nil {
		return 0, easeml.RecoveryInfo{}, err
	}
	defer os.RemoveAll(dir)
	if _, err := copyDir(image, dir); err != nil {
		return 0, easeml.RecoveryInfo{}, err
	}
	cfg.DataDir = dir
	t0 := time.Now()
	svc, err := easeml.OpenService(cfg)
	wall := time.Since(t0)
	if err != nil {
		return wall, easeml.RecoveryInfo{}, err
	}
	defer svc.Close()
	for id, want := range live {
		got, err := svc.Status(id)
		if err != nil {
			o.problemf("recovered image has no %s: %v", id, err)
			continue
		}
		if !reflect.DeepEqual(got, want) {
			o.problemf("recovered %s differs from the live service: %d/%d models, %d examples vs %d/%d, %d",
				id, got.Trained, got.NumCandidates, got.Examples, want.Trained, want.NumCandidates, want.Examples)
		}
	}
	return wall, svc.Recovered, nil
}

// liveStatuses snapshots every job of a service.
func liveStatuses(svc *easeml.Service, ids []string) (map[string]server.Status, error) {
	out := make(map[string]server.Status, len(ids))
	for _, id := range ids {
		st, err := svc.Status(id)
		if err != nil {
			return nil, err
		}
		out[id] = st
	}
	return out, nil
}
