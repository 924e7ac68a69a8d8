package serve

import (
	"bytes"
	"fmt"
	"io"
	"sort"
	"sync"

	"execmodels/internal/obs"
)

// Metric names exported per tenant (rank 0 of a one-rank registry each)
// and globally. The per-tenant series carry a tenant="..." label.
const (
	CJobsSubmitted = "serve_jobs_submitted_total"
	CJobsCompleted = "serve_jobs_completed_total"
	CJobsFailed    = "serve_jobs_failed_total"
	CJobsRejected  = "serve_jobs_rejected_total"
	CJobsResumed   = "serve_jobs_resumed_total"
	CIterations    = "serve_scf_iterations_total"
	CCheckpoints   = "serve_checkpoints_total"
	GFlopsServed   = "serve_flops_served"
	HJobLatency    = "serve_job_latency_seconds"
	HQueueWait     = "serve_queue_wait_seconds"

	GQueueDepth = "serve_queue_depth"
	GQueueFlops = "serve_queue_flops"
	GUptime     = "serve_uptime_seconds"
)

// Metrics is the server's per-tenant observability state: one
// internally synchronized obs.Registry per tenant plus one for
// server-wide series, all exported through obs.WriteOpenMetrics.
type Metrics struct {
	mu          sync.Mutex
	tenants     map[string]*obs.Registry // guarded by mu
	names       []string                 // guarded by mu; sorted tenant names
	servedFlops float64                  // guarded by mu; summed EstCost of completed jobs
	global      *obs.Registry
}

// NewMetrics creates an empty metric state.
func NewMetrics() *Metrics {
	return &Metrics{
		tenants: map[string]*obs.Registry{},
		global:  obs.NewRegistry(1),
	}
}

// Tenant returns (creating on first touch) the registry for one tenant.
func (m *Metrics) Tenant(name string) *obs.Registry {
	m.mu.Lock()
	defer m.mu.Unlock()
	r := m.tenants[name]
	if r == nil {
		r = obs.NewRegistry(1)
		m.tenants[name] = r
		i := sort.SearchStrings(m.names, name)
		m.names = append(m.names, "")
		copy(m.names[i+1:], m.names[i:])
		m.names[i] = name
	}
	// Handing the registry out is safe: obs.Registry is internally
	// mutex-protected; mu only guards the tenant map itself.
	return r
}

// Global returns the server-wide registry.
func (m *Metrics) Global() *obs.Registry { return m.global }

// AddServedFlops accumulates completed estimated work, the denominator
// of the admission controller's drain-rate estimate.
func (m *Metrics) AddServedFlops(f float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.servedFlops += f
}

// ServedFlops returns the summed estimated cost of completed jobs.
func (m *Metrics) ServedFlops() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.servedFlops
}

// tenantSnapshot returns the current (sorted) tenant names and their
// registries as parallel slices.
func (m *Metrics) tenantSnapshot() ([]string, []*obs.Registry) {
	m.mu.Lock()
	defer m.mu.Unlock()
	names := append([]string(nil), m.names...)
	regs := make([]*obs.Registry, len(names))
	for i, n := range names {
		regs[i] = m.tenants[n]
	}
	return names, regs
}

// WriteOpenMetrics writes every tenant's registry (tenant="..." label,
// sorted tenant order) and the global registry (tenant="_server") as one
// OpenMetrics exposition. obs.WriteOpenMetrics terminates each dump with
// "# EOF", so the interior terminators are stripped and a single one
// ends the combined document.
func (m *Metrics) WriteOpenMetrics(w io.Writer) error {
	names, regs := m.tenantSnapshot()
	var buf bytes.Buffer
	for i, name := range names {
		var part bytes.Buffer
		if err := obs.WriteOpenMetrics(&part, regs[i], map[string]string{"tenant": name}); err != nil {
			return err
		}
		buf.Write(bytes.TrimSuffix(part.Bytes(), []byte("# EOF\n")))
	}
	var part bytes.Buffer
	if err := obs.WriteOpenMetrics(&part, m.global, map[string]string{"tenant": "_server"}); err != nil {
		return err
	}
	buf.Write(part.Bytes())
	if _, err := w.Write(buf.Bytes()); err != nil {
		return fmt.Errorf("serve: metrics write: %w", err)
	}
	return nil
}
