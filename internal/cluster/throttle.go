package cluster

// Throttling episodes model the *dynamic* side of energy-induced
// performance variability: power capping and thermal DVFS slow a rank
// down for a while, then release it. Episodes are a pure function of
// (seed, rank, time window) — no mutable state — so any executor can
// query any (rank, window) without ordering or reset concerns.
//
// Time is divided into windows of ThrottleWindow seconds; within each
// window a rank is independently throttled to ThrottleFactor of its
// static speed with probability ThrottleProb.

// throttledWin reports whether rank r is throttled during window index
// win, as a pure deterministic hash of (seed, rank, window).
func (m *Machine) throttledWin(r int, win int64) bool {
	p := m.Cfg.ThrottleProb
	if p <= 0 {
		return false
	}
	h := uint64(m.Cfg.Seed)*0x9e3779b97f4a7c15 + uint64(r)*0xbf58476d1ce4e5b9 + uint64(win)*0x94d049bb133111eb
	h ^= h >> 31
	h *= 0xd6e8feb86659fd93
	h ^= h >> 27
	u := float64(h>>11) / float64(1<<53)
	return u < p
}

func (m *Machine) throttleWindow() float64 {
	if m.Cfg.ThrottleWindow > 0 {
		return m.Cfg.ThrottleWindow
	}
	return 0.01 // 10 ms default episode granularity
}

func (m *Machine) throttleFactor() float64 {
	if m.Cfg.ThrottleFactor > 0 {
		return m.Cfg.ThrottleFactor
	}
	return 0.5
}

// TaskTimeAt returns the execution time of a task of the given cost
// starting at simulated time `at` on rank r, integrating the work across
// throttle windows. Without throttling it reduces to TaskTime.
func (m *Machine) TaskTimeAt(r int, cost, at float64) float64 {
	if m.Cfg.ThrottleProb <= 0 {
		return m.TaskTime(r, cost)
	}
	if m.Cfg.NoiseSigma > 0 {
		// Apply per-task noise as extra work, as in TaskTime.
		cost *= m.noiseFactor()
	}
	w := m.throttleWindow()
	// Walk whole windows by integer index so a segment can never collapse
	// to zero length from floating-point boundary error.
	k := int64(at / w)
	t := at
	remaining := cost
	for remaining > 0 {
		sp := m.speeds[r]
		if m.throttledWin(r, k) {
			sp *= m.throttleFactor()
		}
		wEnd := float64(k+1) * w
		seg := wEnd - t
		if seg <= 0 {
			k++
			continue
		}
		if capacity := seg * sp; capacity >= remaining {
			t += remaining / sp
			break
		} else {
			remaining -= capacity
		}
		t = wEnd
		k++
	}
	return t - at + m.Cfg.TaskOverhead
}
