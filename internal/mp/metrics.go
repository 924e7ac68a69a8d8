package mp

import "execmodels/internal/obs"

// Metrics instrumentation for the wall-clock runtime: a World can carry an
// obs.Registry and then counts per-rank messages and payload bytes. Counts
// are deterministic for a fixed program; only wall-clock timing is not, and
// no timing ever enters the registry from this package.

// SetMetrics installs (or, with nil, removes) the registry the world
// reports into. The registry should be sized for at least P ranks.
func (w *World) SetMetrics(reg *obs.Registry) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.metrics = reg
}

// metricsReg returns the installed registry (possibly nil). obs.Registry
// is internally locked, so callers use it without holding mu.
func (w *World) metricsReg() *obs.Registry {
	w.mu.Lock()
	defer w.mu.Unlock()
	//lint:ignore lockset obs.Registry is internally mutex-protected; mu only guards installing/removing the pointer, so handing the pointer out is safe
	return w.metrics
}

// countSend records one sent message from src with the given payload
// length (8 bytes per float64 element).
func (w *World) countSend(src, elems int) {
	reg := w.metricsReg()
	reg.Count(obs.CMpMessages, src, 1)
	reg.Count(obs.CMpBytes, src, int64(8*elems))
}
