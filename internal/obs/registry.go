// Package obs is the deterministic observability layer of the simulator:
// a typed metric registry (counters, gauges, log-bucket histograms keyed
// by metric name and rank), span-based structured tracing, exporters
// (Chrome trace-event JSON, OpenMetrics text, JSON summary), and a blame
// analysis that decomposes makespan × ranks exactly into per-component
// rank-seconds.
//
// Everything in this package is fed from the executors' virtual clocks,
// so every exported artifact is a pure function of (workload, machine,
// seed) — two runs of the same configuration produce byte-identical
// dumps. Real wall-clock quantities (Result.ScheduleCost) are typed
// core.WallSeconds, which the float64 charges here do not accept, so they
// never enter the registry.
package obs

import (
	"sort"
	"sync"
)

// Metric names shared by the executors, exporters and the blame analysis.
// Gauges hold per-rank simulated seconds; counters hold per-rank event
// counts. The *_seconds gauges that form the blame decomposition must be
// charged for pairwise-disjoint windows of a rank's timeline — the blame
// analysis attributes everything uncharged to idle.
const (
	MBusy        = "busy_seconds"         // executing task bodies
	MComm        = "comm_seconds"         // moving data blocks
	MCounter     = "counter_seconds"      // shared-counter round-trips incl. queueing
	MSteal       = "steal_seconds"        // steal protocol (probes, transfers, backoff)
	MFinish      = "finish_seconds"       // per-rank completion time (not a blame term)
	MCounterWait = "counter_wait_seconds" // queueing delay at the counter home

	CTasks        = "tasks_total"
	CSteals       = "steals_total"
	CFailedSteals = "failed_steals_total"
	CCounterOps   = "counter_ops_total"
	CCommBytes    = "comm_bytes_total"

	HTask = "task_runtime_seconds" // histogram of individual task durations
)

// defaultBuckets are the log-scale histogram upper bounds (seconds-ish
// decades); one extra +Inf bucket is implicit. Fixed at construction so
// exported histograms are comparable across runs and models.
var defaultBuckets = []float64{1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1, 10}

type histVec struct {
	counts [][]uint64 // per rank, len(defaultBuckets)+1
	sums   []float64
	ns     []uint64
}

// Registry holds all metrics of one run, keyed by (name, rank). It is
// allocation-light: each metric name owns one slice indexed by rank,
// created on first touch. All methods are nil-safe no-ops so executors
// can charge metrics unconditionally, and mutex-protected so the job
// server can charge a registry while /metrics scrapes it.
type Registry struct {
	mu       sync.Mutex
	ranks    int
	counters map[string][]int64   // guarded by mu
	gauges   map[string][]float64 // guarded by mu
	hists    map[string]*histVec  // guarded by mu
}

// NewRegistry creates a registry for a run over the given rank count.
func NewRegistry(ranks int) *Registry {
	if ranks < 1 {
		ranks = 1
	}
	return &Registry{
		ranks:    ranks,
		counters: map[string][]int64{},
		gauges:   map[string][]float64{},
		hists:    map[string]*histVec{},
	}
}

// Ranks returns the rank count the registry was built for.
func (r *Registry) Ranks() int {
	if r == nil {
		return 0
	}
	return r.ranks
}

// Count adds delta to the counter (name, rank).
func (r *Registry) Count(name string, rank int, delta int64) {
	if r == nil || rank < 0 || rank >= r.ranks {
		return
	}
	r.mu.Lock()
	v := r.counters[name]
	if v == nil {
		v = make([]int64, r.ranks)
		r.counters[name] = v
	}
	v[rank] += delta
	r.mu.Unlock()
}

// Add adds dt to the gauge (name, rank). Gauges accumulate simulated
// seconds; Set overwrites instead.
func (r *Registry) Add(name string, rank int, dt float64) {
	if r == nil || rank < 0 || rank >= r.ranks {
		return
	}
	r.mu.Lock()
	r.gaugeLocked(name)[rank] += dt
	r.mu.Unlock()
}

// Set overwrites the gauge (name, rank).
func (r *Registry) Set(name string, rank int, v float64) {
	if r == nil || rank < 0 || rank >= r.ranks {
		return
	}
	r.mu.Lock()
	r.gaugeLocked(name)[rank] = v
	r.mu.Unlock()
}

func (r *Registry) gaugeLocked(name string) []float64 {
	v := r.gauges[name]
	if v == nil {
		v = make([]float64, r.ranks)
		r.gauges[name] = v
	}
	return v
}

// Observe records one sample in the histogram (name, rank).
func (r *Registry) Observe(name string, rank int, sample float64) {
	if r == nil || rank < 0 || rank >= r.ranks {
		return
	}
	r.mu.Lock()
	h := r.hists[name]
	if h == nil {
		h = &histVec{
			counts: make([][]uint64, r.ranks),
			sums:   make([]float64, r.ranks),
			ns:     make([]uint64, r.ranks),
		}
		for i := range h.counts {
			h.counts[i] = make([]uint64, len(defaultBuckets)+1)
		}
		r.hists[name] = h
	}
	b := len(defaultBuckets) // +Inf bucket
	for i, ub := range defaultBuckets {
		if sample <= ub {
			b = i
			break
		}
	}
	h.counts[rank][b]++
	h.sums[rank] += sample
	h.ns[rank]++
	r.mu.Unlock()
}

// CounterVec returns a copy of the per-rank counter vector (all zeros if
// the metric was never touched).
func (r *Registry) CounterVec(name string) []int64 {
	out := make([]int64, r.Ranks())
	if r == nil {
		return out
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	copy(out, r.counters[name])
	return out
}

// GaugeVec returns a copy of the per-rank gauge vector.
func (r *Registry) GaugeVec(name string) []float64 {
	out := make([]float64, r.Ranks())
	if r == nil {
		return out
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	copy(out, r.gauges[name])
	return out
}

// CounterTotal returns the counter summed over ranks.
func (r *Registry) CounterTotal(name string) int64 {
	var s int64
	for _, v := range r.CounterVec(name) {
		s += v
	}
	return s
}

// GaugeTotal returns the gauge summed over ranks.
func (r *Registry) GaugeTotal(name string) float64 {
	var s float64
	for _, v := range r.GaugeVec(name) {
		s += v
	}
	return s
}

// CounterNames returns the sorted names of all touched counters.
func (r *Registry) CounterNames() []string {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return sortedKeys(r.counters)
}

// GaugeNames returns the sorted names of all touched gauges.
func (r *Registry) GaugeNames() []string {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return sortedKeys(r.gauges)
}

// HistNames returns the sorted names of all touched histograms.
func (r *Registry) HistNames() []string {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return sortedKeys(r.hists)
}

// HistSnapshot returns the bucket upper bounds and, for one rank, the
// bucket counts (last bucket is +Inf), sample sum and sample count.
func (r *Registry) HistSnapshot(name string, rank int) (bounds []float64, counts []uint64, sum float64, n uint64) {
	bounds = append([]float64(nil), defaultBuckets...)
	if r == nil || rank < 0 || rank >= r.ranks {
		return bounds, make([]uint64, len(defaultBuckets)+1), 0, 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		return bounds, make([]uint64, len(defaultBuckets)+1), 0, 0
	}
	return bounds, append([]uint64(nil), h.counts[rank]...), h.sums[rank], h.ns[rank]
}

func sortedKeys[M ~map[string]V, V any](m M) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
