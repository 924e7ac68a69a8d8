package cluster

import (
	"math"
	"testing"
)

func TestThrottleDisabledByDefault(t *testing.T) {
	m := New(Config{Ranks: 2, Seed: 1})
	if m.throttledWin(0, 12) {
		t.Fatal("throttling active with ThrottleProb = 0")
	}
	if got, want := m.TaskTimeAt(0, 1e6, 5.0), m.TaskTime(0, 1e6); got != want {
		t.Fatalf("TaskTimeAt %v != TaskTime %v without throttling", got, want)
	}
}

func TestThrottleDeterministic(t *testing.T) {
	m1 := New(Config{Ranks: 4, ThrottleProb: 0.3, Seed: 9})
	m2 := New(Config{Ranks: 4, ThrottleProb: 0.3, Seed: 9})
	for r := 0; r < 4; r++ {
		for w := int64(0); w < 100; w++ {
			if m1.throttledWin(r, w) != m2.throttledWin(r, w) {
				t.Fatalf("nondeterministic throttle at rank %d window %d", r, w)
			}
		}
	}
}

func TestThrottleFrequencyMatchesProb(t *testing.T) {
	m := New(Config{Ranks: 8, ThrottleProb: 0.25, ThrottleWindow: 0.01, Seed: 3})
	var throttled, total int
	for r := 0; r < 8; r++ {
		for w := int64(0); w < 500; w++ {
			total++
			if m.throttledWin(r, w) {
				throttled++
			}
		}
	}
	frac := float64(throttled) / float64(total)
	if math.Abs(frac-0.25) > 0.03 {
		t.Fatalf("throttle fraction %v, want ≈ 0.25", frac)
	}
}

func TestThrottleSlowsBySetFactor(t *testing.T) {
	m := New(Config{Ranks: 1, ThrottleProb: 1, ThrottleFactor: 0.25, Seed: 1})
	// Fully throttled: a task takes 4x as long (plus overhead).
	base := 1e6/m.Speed(0) + m.Cfg.TaskOverhead
	got := m.TaskTimeAt(0, 1e6, 0)
	want := 4*(base-m.Cfg.TaskOverhead) + m.Cfg.TaskOverhead
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("TaskTimeAt = %v, want %v", got, want)
	}
}

// Work must be conserved across window boundaries: a task spanning a
// throttled and an unthrottled window takes intermediate time.
func TestThrottleIntegratesAcrossWindows(t *testing.T) {
	// Hunt for a boundary where throttle state flips.
	m := New(Config{Ranks: 1, ThrottleProb: 0.5, ThrottleWindow: 0.01, ThrottleFactor: 0.5, Seed: 2})
	var at float64 = -1
	for w := int64(0); w < 1000; w++ {
		if m.throttledWin(0, w) != m.throttledWin(0, w+1) {
			at = float64(w)*0.01 + 0.005 // start mid-window, spanning the flip
			break
		}
	}
	if at < 0 {
		t.Skip("no flip found")
	}
	// A task of exactly one window's full-speed work, started mid-window.
	cost := 0.01 * m.Speed(0)
	dt := m.TaskTimeAt(0, cost, at) - m.Cfg.TaskOverhead
	fast := 0.01       // all unthrottled
	slow := 0.01 * 2.0 // all throttled
	if dt <= fast || dt >= slow {
		t.Fatalf("spanning task time %v not strictly between %v and %v", dt, fast, slow)
	}
}

// Long tasks under heavy throttling must terminate (iteration guard).
func TestThrottleLongTaskTerminates(t *testing.T) {
	m := New(Config{Ranks: 1, ThrottleProb: 0.9, ThrottleFactor: 0.1, Seed: 4})
	dt := m.TaskTimeAt(0, 1e9, 0) // ~1 s of work, windows of 10 ms
	if dt <= 1.0 || math.IsNaN(dt) || math.IsInf(dt, 0) {
		t.Fatalf("implausible time %v", dt)
	}
}
