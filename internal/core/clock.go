package core

import "time"

// stopwatch is the single sanctioned access to the wall clock inside the
// simulation packages, keeping the boundary auditable: wall-clock
// executors and schedule-cost accounting *measure* real time through it,
// but scheduling decisions may never consult it — simulated results must
// replay exactly from a seed. execlint's clocktaint check traces its
// values so none reaches a Result field, a registry charge or an
// exporter.
type stopwatch struct{ t0 time.Time }

// startStopwatch begins timing.
func startStopwatch() stopwatch { return stopwatch{t0: time.Now()} }

// elapsed returns the wall time since the stopwatch started.
func (s stopwatch) elapsed() time.Duration { return time.Since(s.t0) }

// seconds returns the elapsed wall time in seconds.
func (s stopwatch) seconds() float64 { return s.elapsed().Seconds() }
