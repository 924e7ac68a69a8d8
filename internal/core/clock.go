package core

import "time"

// WallSeconds is a real wall-clock duration in seconds. Simulated time is
// a plain float64; wall time carries this type, so the compiler refuses to
// store a measured value where a simulated one belongs (a Result's
// simulated fields, the simulated clocks, registry charges) — simulated
// results must replay exactly from a seed. TestWallSecondsStayWall, at
// the module root, fails on any conversion of a WallSeconds value to
// another type. It formats like a float64.
type WallSeconds float64

// stopwatch is the single sanctioned access to the wall clock inside the
// simulation packages, keeping the boundary auditable: wall-clock
// executors and schedule-cost accounting *measure* real time through it,
// but scheduling decisions may never consult it.
type stopwatch struct{ t0 time.Time }

// startStopwatch begins timing.
func startStopwatch() stopwatch { return stopwatch{t0: time.Now()} }

// elapsed returns the wall time since the stopwatch started.
func (s stopwatch) elapsed() time.Duration { return time.Since(s.t0) }

// seconds returns the elapsed wall time in seconds.
func (s stopwatch) seconds() WallSeconds { return WallSeconds(s.elapsed().Seconds()) }
