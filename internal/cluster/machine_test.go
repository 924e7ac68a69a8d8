package cluster

import (
	"math"
	"testing"
)

func TestNewDefaults(t *testing.T) {
	m := New(Config{Ranks: 4})
	if m.P != 4 {
		t.Fatalf("P = %d", m.P)
	}
	for r := 0; r < 4; r++ {
		if m.Speed(r) != 1e9 {
			t.Fatalf("default speed = %v", m.Speed(r))
		}
	}
	if m.Cfg.Latency != 1e-6 || m.Cfg.Bandwidth != 5e9 {
		t.Fatalf("defaults not applied: %+v", m.Cfg)
	}
}

func TestNewZeroRanks(t *testing.T) {
	if m := New(Config{}); m.P != 1 {
		t.Fatalf("zero ranks should default to 1, got %d", m.P)
	}
}

func TestHeterogeneitySpread(t *testing.T) {
	m := New(Config{Ranks: 200, Heterogeneity: 0.3, Seed: 1})
	lo, hi := math.Inf(1), math.Inf(-1)
	for r := 0; r < m.P; r++ {
		s := m.Speed(r) / 1e9
		lo = math.Min(lo, s)
		hi = math.Max(hi, s)
		if s < 0.7-1e-12 || s > 1.3+1e-12 {
			t.Fatalf("speed %v outside [0.7, 1.3]", s)
		}
	}
	if hi-lo < 0.3 {
		t.Fatalf("spread %v too small for h=0.3 over 200 ranks", hi-lo)
	}
}

func TestHeterogeneityOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(Config{Ranks: 2, Heterogeneity: 1})
}

func TestTaskTimeDeterministicNoNoise(t *testing.T) {
	m := New(Config{Ranks: 2, Seed: 3})
	t1 := m.TaskTime(0, 1e9)
	t2 := m.TaskTime(0, 1e9)
	if t1 != t2 {
		t.Fatal("noise-free TaskTime not deterministic")
	}
	want := 1.0 + m.Cfg.TaskOverhead
	if math.Abs(t1-want) > 1e-15 {
		t.Fatalf("TaskTime = %v, want %v", t1, want)
	}
}

func TestTaskTimeNoiseOnlySlows(t *testing.T) {
	m := New(Config{Ranks: 1, NoiseSigma: 0.5, Seed: 7})
	base := 1.0 + m.Cfg.TaskOverhead
	for i := 0; i < 1000; i++ {
		if tt := m.TaskTime(0, 1e9); tt < base-1e-12 {
			t.Fatalf("noise sped a task up: %v < %v", tt, base)
		}
	}
}

func TestTaskTimeNoiseReproducible(t *testing.T) {
	m1 := New(Config{Ranks: 1, NoiseSigma: 0.2, Seed: 5})
	m2 := New(Config{Ranks: 1, NoiseSigma: 0.2, Seed: 5})
	for i := 0; i < 100; i++ {
		if m1.TaskTime(0, 1e6) != m2.TaskTime(0, 1e6) {
			t.Fatal("same seed diverged")
		}
	}
}

func TestXferAndRoundTrip(t *testing.T) {
	m := New(Config{Ranks: 2, Latency: 1e-6, Bandwidth: 1e9})
	if got := m.XferTime(1000); math.Abs(got-(1e-6+1e-6)) > 1e-18 {
		t.Fatalf("XferTime = %v", got)
	}
	if got := m.RoundTrip(); got != 2e-6 {
		t.Fatalf("RoundTrip = %v", got)
	}
}

func TestIdealTime(t *testing.T) {
	m := New(Config{Ranks: 4, Speed: 2})
	if got := m.IdealTime(16); math.Abs(got-2) > 1e-12 {
		t.Fatalf("IdealTime = %v, want 2", got)
	}
}

func TestCounterAgentSerializes(t *testing.T) {
	m := New(Config{Ranks: 4, Latency: 1e-6, CounterService: 1e-6})
	c := NewCounterAgent(m)
	// Two requests arriving at the same time: the second must queue.
	v1, d1 := c.FetchAdd(0, 1)
	v2, d2 := c.FetchAdd(0, 1)
	if v1 != 0 || v2 != 1 {
		t.Fatalf("values %d %d", v1, v2)
	}
	// First: arrive at 1µs, served to 2µs, response at 3µs.
	if math.Abs(d1-3e-6) > 1e-18 {
		t.Fatalf("d1 = %v", d1)
	}
	// Second: arrive 1µs, start 2µs, done 3µs, response 4µs.
	if math.Abs(d2-4e-6) > 1e-18 {
		t.Fatalf("d2 = %v", d2)
	}
	if c.TotalWait() <= 0 {
		t.Fatal("expected queueing wait")
	}
	if c.Ops() != 2 || c.Value() != 2 {
		t.Fatalf("ops=%d value=%d", c.Ops(), c.Value())
	}
}

func TestCounterAgentNoContention(t *testing.T) {
	m := New(Config{Ranks: 2, Latency: 1e-6, CounterService: 1e-7})
	c := NewCounterAgent(m)
	_, d1 := c.FetchAdd(0, 1)
	_, d2 := c.FetchAdd(d1, 1) // well after the first completes
	if c.TotalWait() != 0 {
		t.Fatalf("unexpected wait %v", c.TotalWait())
	}
	if d2 <= d1 {
		t.Fatal("time must advance")
	}
}

func TestNilTraceSafe(t *testing.T) {
	var tr *Trace
	tr.Record(Interval{}) // must not panic
	if s, e := tr.Span(); s != 0 || e != 0 {
		t.Fatal("nil trace span")
	}
}
