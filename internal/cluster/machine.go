// Package cluster models the HPC platform the execution-model study runs
// on: a set of ranks with (possibly heterogeneous and noisy) speeds,
// connected by an α–β network, with virtual per-rank clocks.
//
// The paper ran on a real Infiniband cluster; this simulator substitutes a
// deterministic machine whose key properties — irregular task costs meet
// communication overheads and speed variability — are first-class,
// controllable parameters. Absolute times are meaningless; relative
// behaviour of the execution models is the object of study.
package cluster

import (
	"fmt"
	"math"
	"math/rand"
)

// Config describes a simulated machine.
type Config struct {
	Ranks int // number of ranks (processes)

	// Speed is the baseline execution rate in work units (flops) per
	// simulated second. Default 1e9.
	Speed float64

	// Heterogeneity is the relative spread of static per-rank speeds:
	// rank speeds are drawn uniformly from [1-h, 1+h] × Speed. 0 gives a
	// homogeneous machine.
	Heterogeneity float64

	// NoiseSigma is the per-task multiplicative speed noise: each task
	// execution is slowed by a factor exp(|N(0, σ)|) (one-sided: noise
	// only ever slows a rank down, modelling OS jitter, DVFS throttling
	// and other energy-induced variability). 0 disables noise.
	NoiseSigma float64

	// Latency is the one-way network latency in simulated seconds
	// (default 1e-6, a typical RDMA network).
	Latency float64

	// Bandwidth is the network bandwidth in bytes per simulated second
	// (default 5e9).
	Bandwidth float64

	// CounterService is the serialization time of one remote atomic op at
	// its home rank's network agent (default 2e-7). This is what makes a
	// centralized task counter a contention point at scale.
	CounterService float64

	// TaskOverhead is the fixed per-task runtime bookkeeping cost in
	// simulated seconds (default 5e-7).
	TaskOverhead float64

	// ThrottleProb, ThrottleWindow and ThrottleFactor configure dynamic
	// DVFS-style throttling episodes: in each ThrottleWindow-second time
	// window (default 10 ms), each rank is independently slowed to
	// ThrottleFactor of its speed (default 0.5) with probability
	// ThrottleProb. Zero ThrottleProb disables episodes. See throttle.go.
	ThrottleProb   float64
	ThrottleWindow float64
	ThrottleFactor float64

	// Seed makes all stochastic machine behaviour reproducible.
	Seed int64
}

func (c *Config) setDefaults() {
	if c.Ranks <= 0 {
		c.Ranks = 1
	}
	if c.Speed == 0 {
		c.Speed = 1e9
	}
	if c.Latency == 0 {
		c.Latency = 1e-6
	}
	if c.Bandwidth == 0 {
		c.Bandwidth = 5e9
	}
	if c.CounterService == 0 {
		c.CounterService = 2e-7
	}
	if c.TaskOverhead == 0 {
		c.TaskOverhead = 5e-7
	}
}

// Machine is an instantiated simulated platform.
type Machine struct {
	Cfg    Config
	P      int
	speeds []float64 // static per-rank speed (work units per second)
	rng    *rand.Rand

	// Trace, when non-nil, receives an Interval for every task execution
	// and runtime operation the executors perform. Set a fresh Trace
	// before a run to capture it; leave nil to skip the overhead.
	Trace *Trace
}

// New builds a machine from cfg.
func New(cfg Config) *Machine {
	cfg.setDefaults()
	if cfg.Heterogeneity < 0 || cfg.Heterogeneity >= 1 {
		panic(fmt.Sprintf("cluster: Heterogeneity must be in [0,1), got %v", cfg.Heterogeneity))
	}
	m := &Machine{
		Cfg:    cfg,
		P:      cfg.Ranks,
		speeds: make([]float64, cfg.Ranks),
		rng:    rand.New(rand.NewSource(cfg.Seed)),
	}
	for r := range m.speeds {
		f := 1.0
		if cfg.Heterogeneity > 0 {
			f = 1 - cfg.Heterogeneity + 2*cfg.Heterogeneity*m.rng.Float64()
		}
		m.speeds[r] = cfg.Speed * f
	}
	return m
}

// Reset reseeds the machine's noise stream so that repeated runs over the
// same machine are independent but reproducible.
func (m *Machine) Reset(seed int64) {
	m.rng = rand.New(rand.NewSource(seed))
}

// Speed returns rank r's static speed in work units per second.
func (m *Machine) Speed(r int) float64 { return m.speeds[r] }

// TaskTime returns the simulated execution time of a task of the given
// cost (work units) on rank r, including per-task multiplicative noise and
// the fixed per-task overhead. It ignores throttling episodes; executors
// that track per-rank clocks use TaskTimeAt instead.
func (m *Machine) TaskTime(r int, cost float64) float64 {
	t := cost / m.speeds[r]
	if m.Cfg.NoiseSigma > 0 {
		t *= m.noiseFactor()
	}
	return t + m.Cfg.TaskOverhead
}

// noiseFactor draws one one-sided lognormal slowdown factor.
func (m *Machine) noiseFactor() float64 {
	return math.Exp(math.Abs(m.rng.NormFloat64()) * m.Cfg.NoiseSigma)
}

// XferTime returns the simulated time to move n bytes between two ranks
// over the network: one latency plus serialization at the bandwidth.
func (m *Machine) XferTime(bytes int) float64 {
	return m.Cfg.Latency + float64(bytes)/m.Cfg.Bandwidth
}

// RoundTrip returns the time of an empty request/response exchange over
// the network.
func (m *Machine) RoundTrip() float64 { return 2 * m.Cfg.Latency }

// IdealTime returns the perfectly-balanced, zero-overhead lower bound for
// executing totalCost work units on this machine: totalCost divided by the
// aggregate speed.
func (m *Machine) IdealTime(totalCost float64) float64 {
	var agg float64
	for _, v := range m.speeds {
		agg += v
	}
	return totalCost / agg
}
