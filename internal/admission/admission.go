// Package admission implements tenant admission control for the ease.ml
// service — the resource-sharing half of the paper's multi-tenancy story
// that the scheduler alone does not cover. The multi-tenant pickers in
// internal/core decide *who is served next* among admitted work; this
// package decides *what work gets in at all* and *how much of the shared
// pool a tenant may consume*:
//
//   - every tenant declares a Class (guaranteed / standard / best-effort)
//     that carries a scheduling weight (weighted fair sharing across
//     classes) and preemption semantics (guaranteed work may preempt
//     best-effort leases when the pool is saturated);
//   - MaxJobs caps how many unfinished jobs a tenant may have at once;
//   - RatePerSec/Burst is a token-bucket rate limit on the user-facing
//     write path (Submit, Feed);
//   - Budget bounds the total GPU cost a tenant's bandits may pay
//     (enforced by the scheduler against GPUCB.CumulativeCost()): once it
//     is exhausted the tenant's jobs drain gracefully instead of training
//     further candidates.
//
// The package is a leaf: internal/server consults a Controller on every
// admission decision and maps ErrQuotaExceeded to HTTP 429 with code
// "quota_exceeded".
package admission

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/telemetry"
)

// admissionVerdicts counts every admission decision by tenant and verdict
// ("admitted" / "rejected"); rejections are what the HTTP surface turns
// into 429s. The same tallies are kept per tenant on the controller for
// GET /admin/quotas.
var admissionVerdicts = telemetry.Default().CounterVec("easeml_admission_verdicts_total",
	"Admission decisions by tenant and verdict; rejected maps to HTTP 429.", "tenant", "verdict")

// Class is a tenant's declared service class. The zero value is treated as
// ClassStandard everywhere.
type Class string

// The three service classes, ordered by priority.
const (
	// ClassGuaranteed tenants get the largest fair-share weight and may
	// preempt outstanding best-effort leases when the pool is saturated.
	ClassGuaranteed Class = "guaranteed"
	// ClassStandard is the default: mid weight, neither preempts nor is
	// preempted.
	ClassStandard Class = "standard"
	// ClassBestEffort tenants get the smallest weight and their leases are
	// preemptible by guaranteed work.
	ClassBestEffort Class = "best-effort"
)

// ParseClass validates a class name ("" means ClassStandard).
func ParseClass(s string) (Class, error) {
	switch Class(s) {
	case "":
		return ClassStandard, nil
	case ClassGuaranteed, ClassStandard, ClassBestEffort:
		return Class(s), nil
	default:
		return "", fmt.Errorf("admission: unknown class %q (use %s, %s or %s)",
			s, ClassGuaranteed, ClassStandard, ClassBestEffort)
	}
}

// Weight returns the class's weighted-fair-sharing weight: guaranteed
// tenants get 4 picks for every best-effort tenant's 1.
func (c Class) Weight() float64 {
	switch c {
	case ClassGuaranteed:
		return 4
	case ClassBestEffort:
		return 1
	default:
		return 2
	}
}

// MayPreempt reports whether work of this class may preempt an outstanding
// preemptible lease when the pool is saturated.
func (c Class) MayPreempt() bool { return c == ClassGuaranteed }

// Preemptible reports whether this class's outstanding leases may be
// preempted by higher-priority work.
func (c Class) Preemptible() bool { return c == ClassBestEffort }

// normalize maps the zero value to ClassStandard.
func (c Class) normalize() Class {
	if c == "" {
		return ClassStandard
	}
	return c
}

// Quota is one tenant's declared resource envelope. Zero fields mean
// "unlimited" (and Class's zero value means standard), so the zero Quota
// admits everything at standard priority.
type Quota struct {
	// Class is the tenant's service class (default standard).
	Class Class `json:"class,omitempty"`
	// MaxJobs caps the tenant's concurrently unfinished jobs (0 = no cap).
	MaxJobs int `json:"max_jobs,omitempty"`
	// RatePerSec refills the tenant's token bucket for Submit/Feed
	// operations (0 = unlimited).
	RatePerSec float64 `json:"rate_per_sec,omitempty"`
	// Burst is the bucket capacity (default: max(1, ⌈RatePerSec⌉)).
	Burst int `json:"burst,omitempty"`
	// Budget bounds the total GPU cost the tenant's jobs may pay (0 = no
	// budget). The scheduler enforces it against the bandits' cumulative
	// cost and drains the tenant's jobs once it is exhausted.
	Budget float64 `json:"budget,omitempty"`
}

// validate rejects malformed quotas before they are installed.
func (q Quota) validate() error {
	if _, err := ParseClass(string(q.Class)); err != nil {
		return err
	}
	if q.MaxJobs < 0 {
		return fmt.Errorf("admission: negative MaxJobs %d", q.MaxJobs)
	}
	if q.RatePerSec < 0 {
		return fmt.Errorf("admission: negative RatePerSec %g", q.RatePerSec)
	}
	if q.Burst < 0 {
		return fmt.Errorf("admission: negative Burst %d", q.Burst)
	}
	if q.Budget < 0 {
		return fmt.Errorf("admission: negative Budget %g", q.Budget)
	}
	return nil
}

// burst returns the effective bucket capacity.
func (q Quota) burst() float64 {
	if q.Burst > 0 {
		return float64(q.Burst)
	}
	b := 1.0
	if q.RatePerSec > b {
		b = float64(int(q.RatePerSec + 0.999999))
	}
	return b
}

// Config is the admission controller's declarative configuration — what
// -quota-config files and easeml.ServiceConfig.Quotas deserialize into.
type Config struct {
	// DefaultClass is the class of tenants without an explicit quota entry
	// (default standard).
	DefaultClass Class `json:"default_class,omitempty"`
	// Tenants maps tenant name → declared quota.
	Tenants map[string]Quota `json:"tenants,omitempty"`
}

// Validate checks every declared class and bound.
func (c Config) Validate() error {
	if _, err := ParseClass(string(c.DefaultClass)); err != nil {
		return err
	}
	for tenant, q := range c.Tenants {
		if err := q.validate(); err != nil {
			return fmt.Errorf("admission: tenant %q: %w", tenant, err)
		}
	}
	return nil
}

// LoadConfig reads a JSON quota configuration file:
//
//	{
//	  "default_class": "standard",
//	  "tenants": {
//	    "alice": {"class": "guaranteed", "max_jobs": 4, "rate_per_sec": 10, "budget": 500},
//	    "carol": {"class": "best-effort", "budget": 40}
//	  }
//	}
func LoadConfig(path string) (Config, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Config{}, fmt.Errorf("admission: reading quota config: %w", err)
	}
	var cfg Config
	if err := json.Unmarshal(data, &cfg); err != nil {
		return Config{}, fmt.Errorf("admission: parsing quota config %s: %w", path, err)
	}
	if err := cfg.Validate(); err != nil {
		return Config{}, fmt.Errorf("admission: quota config %s: %w", path, err)
	}
	return cfg, nil
}

// ErrQuotaExceeded marks admission rejections: over the rate limit, over the
// concurrent-job cap, or over budget. HTTP surfaces map it to 429 Too Many
// Requests with code "quota_exceeded", telling clients to back off rather
// than retry immediately.
var ErrQuotaExceeded = errors.New("quota exceeded")

// tenantState is the controller's live per-tenant record.
type tenantState struct {
	quota      Quota
	declared   bool // explicit quota entry (vs. default-derived)
	tokens     float64
	lastRefill time.Time
	activeJobs int
	// admitted / rejected tally this process's verdicts for the tenant;
	// rejected is exactly the number of 429s the tenant has been served.
	admitted uint64
	rejected uint64
}

// verdictLocked records one admission decision on both the tenant's JSON
// tallies and the Prometheus counters. Callers hold c.mu.
func verdictLocked(tenant string, st *tenantState, err error) {
	if err != nil {
		st.rejected++
		admissionVerdicts.With(tenant, "rejected").Inc()
		return
	}
	st.admitted++
	admissionVerdicts.With(tenant, "admitted").Inc()
}

// Controller enforces admission decisions. It is safe for concurrent use;
// every method is O(1) in the number of tenants. Unknown tenants are
// admitted under the default class with no caps.
type Controller struct {
	mu      sync.Mutex
	def     Class
	tenants map[string]*tenantState
	now     func() time.Time
}

// NewController builds a controller from a validated configuration.
func NewController(cfg Config) (*Controller, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := &Controller{
		def:     cfg.DefaultClass.normalize(),
		tenants: make(map[string]*tenantState, len(cfg.Tenants)),
		now:     time.Now,
	}
	for tenant, q := range cfg.Tenants {
		q.Class = q.Class.normalize()
		c.tenants[tenant] = &tenantState{quota: q, declared: true, tokens: q.burst()}
	}
	return c, nil
}

// SetClock replaces the token-bucket clock (tests drive refills
// deterministically). Set before serving traffic.
func (c *Controller) SetClock(now func() time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = now
}

// state resolves (creating on first contact) a tenant's record. Callers
// hold c.mu.
func (c *Controller) state(tenant string) *tenantState {
	st, ok := c.tenants[tenant]
	if !ok {
		st = &tenantState{quota: Quota{Class: c.def}, tokens: 1, lastRefill: c.now()}
		c.tenants[tenant] = st
	}
	return st
}

// ClassOf returns a tenant's service class.
func (c *Controller) ClassOf(tenant string) Class {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.state(tenant).quota.Class.normalize()
}

// Budget returns a tenant's GPU cost budget (0 = unlimited).
func (c *Controller) Budget(tenant string) float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.state(tenant).quota.Budget
}

// takeTokenLocked applies the token-bucket rate limit: refill by elapsed
// time, then spend one token. Tenants without a rate limit always pass.
// Callers hold c.mu.
func (c *Controller) takeTokenLocked(st *tenantState) error {
	if st.quota.RatePerSec <= 0 {
		return nil
	}
	now := c.now()
	if st.lastRefill.IsZero() {
		st.lastRefill = now
	}
	if dt := now.Sub(st.lastRefill).Seconds(); dt > 0 {
		st.tokens += dt * st.quota.RatePerSec
		if max := st.quota.burst(); st.tokens > max {
			st.tokens = max
		}
	}
	st.lastRefill = now
	if st.tokens < 1 {
		return fmt.Errorf("admission: rate limit %.3g req/s exceeded: %w", st.quota.RatePerSec, ErrQuotaExceeded)
	}
	st.tokens--
	return nil
}

// AdmitOp admits one rate-limited user operation (Feed; Submit goes through
// AdmitJob, which folds this in).
func (c *Controller) AdmitOp(tenant string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.state(tenant)
	if err := c.takeTokenLocked(st); err != nil {
		verdictLocked(tenant, st, err)
		return fmt.Errorf("admission: tenant %q: %w", tenant, err)
	}
	verdictLocked(tenant, st, nil)
	return nil
}

// AdmitJob admits a job submission: the rate limit and the concurrent-job
// cap both apply. On success the tenant's active-job count is incremented;
// the caller must pair it with JobDone when the job finishes (drains,
// fails, or never gets built).
func (c *Controller) AdmitJob(tenant string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.state(tenant)
	if max := st.quota.MaxJobs; max > 0 && st.activeJobs >= max {
		err := fmt.Errorf("admission: tenant %q has %d unfinished jobs (cap %d): %w",
			tenant, st.activeJobs, max, ErrQuotaExceeded)
		verdictLocked(tenant, st, err)
		return err
	}
	if err := c.takeTokenLocked(st); err != nil {
		verdictLocked(tenant, st, err)
		return fmt.Errorf("admission: tenant %q: %w", tenant, err)
	}
	verdictLocked(tenant, st, nil)
	st.activeJobs++
	return nil
}

// NoteJob registers an existing job without gating it — the recovery path:
// jobs already admitted by a previous process must never bounce off their
// own quota at boot.
func (c *Controller) NoteJob(tenant string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.state(tenant).activeJobs++
}

// JobDone releases one concurrent-job slot (the job drained, failed, was
// budget-exhausted, or its submission never completed).
func (c *Controller) JobDone(tenant string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.state(tenant)
	if st.activeJobs > 0 {
		st.activeJobs--
	}
}

// SetQuota installs or replaces a tenant's quota at runtime (the POST
// /admin/quotas surface). The class change applies to jobs submitted from
// now on; budget and rate changes take effect immediately.
func (c *Controller) SetQuota(tenant string, q Quota) error {
	if tenant == "" {
		return fmt.Errorf("admission: empty tenant name")
	}
	if err := q.validate(); err != nil {
		return err
	}
	q.Class = q.Class.normalize()
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.state(tenant)
	st.quota = q
	st.declared = true
	if st.tokens > q.burst() {
		st.tokens = q.burst()
	}
	return nil
}

// DefaultClass returns the class assigned to tenants without an explicit
// quota entry.
func (c *Controller) DefaultClass() Class {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.def
}

// TenantStatus is one tenant's row in the admin quota snapshot.
type TenantStatus struct {
	Tenant     string  `json:"tenant"`
	Class      Class   `json:"class"`
	Declared   bool    `json:"declared"` // explicit quota entry vs. default-derived
	MaxJobs    int     `json:"max_jobs,omitempty"`
	ActiveJobs int     `json:"active_jobs"`
	RatePerSec float64 `json:"rate_per_sec,omitempty"`
	Burst      int     `json:"burst,omitempty"`
	Budget     float64 `json:"budget,omitempty"`
	// Admitted / Rejected tally this process's admission verdicts for the
	// tenant; Rejected is the number of 429s served.
	Admitted uint64 `json:"admitted"`
	Rejected uint64 `json:"rejected"`
}

// Snapshot renders every known tenant (declared or seen) sorted by name.
func (c *Controller) Snapshot() []TenantStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]TenantStatus, 0, len(c.tenants))
	for tenant, st := range c.tenants {
		out = append(out, TenantStatus{
			Tenant:     tenant,
			Class:      st.quota.Class.normalize(),
			Declared:   st.declared,
			MaxJobs:    st.quota.MaxJobs,
			ActiveJobs: st.activeJobs,
			RatePerSec: st.quota.RatePerSec,
			Burst:      st.quota.Burst,
			Budget:     st.quota.Budget,
			Admitted:   st.admitted,
			Rejected:   st.rejected,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Tenant < out[j].Tenant })
	return out
}
