package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"execmodels/internal/cluster"
)

// randomConfig draws a random but valid machine configuration.
func randomConfig(rng *rand.Rand) cluster.Config {
	cfg := cluster.Config{
		Ranks:         1 + rng.Intn(32),
		Seed:          rng.Int63(),
		Heterogeneity: rng.Float64() * 0.5,
	}
	if rng.Intn(2) == 0 {
		cfg.NoiseSigma = rng.Float64() * 0.3
	}
	if rng.Intn(3) == 0 {
		cfg.ThrottleProb = rng.Float64() * 0.4
	}
	return cfg
}

func randomWorkload(rng *rand.Rand) *Workload {
	dists := []string{"uniform", "lognormal", "bimodal", "triangular"}
	return Synthetic(SyntheticOptions{
		NumTasks: 1 + rng.Intn(300),
		Dist:     dists[rng.Intn(len(dists))],
		Sigma:    0.5 + rng.Float64(),
		Seed:     rng.Int63(),
	})
}

// Universal invariants: every model on every machine/workload combination
// (a) runs every task exactly once, (b) never reports a rank finishing
// after the makespan, (c) keeps all reported times non-negative.
func TestPropertyAllModelsAllMachines(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		w := randomWorkload(rng)
		m := cluster.New(randomConfig(rng))
		models := append(AllModels(rng.Int63()),
			Model{Sched: "self-sched-guided"},
			Model{Sched: "self-sched-factoring"},
			Model{Sched: "persistence-sm", Opt: SchedOptions{Seed: rng.Int63()}, Iterations: 2},
		)
		for _, model := range models {
			res := model.Run(w, m)
			var tasks int
			for _, c := range res.TasksRun {
				tasks += c
			}
			if tasks != len(w.Tasks) {
				t.Logf("%s: %d of %d tasks (seed %d)", model.Name(), tasks, len(w.Tasks), seed)
				return false
			}
			for r := 0; r < m.P; r++ {
				if res.BusyTime[r] < 0 || res.CommTime[r] < 0 || res.FinishTime[r] < 0 {
					t.Logf("%s: negative time on rank %d", model.Name(), r)
					return false
				}
				if res.FinishTime[r] > res.Makespan+1e-9 {
					t.Logf("%s: rank %d finish %v > makespan %v", model.Name(), r, res.FinishTime[r], res.Makespan)
					return false
				}
			}
			if res.Makespan <= 0 {
				t.Logf("%s: non-positive makespan", model.Name())
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// Determinism: the same seed must reproduce identical results for every
// model (the whole experiment suite depends on this).
func TestPropertyDeterminism(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		w := randomWorkload(rng)
		cfg := randomConfig(rng)
		models := append(AllModels(42),
			Model{Sched: "self-sched-guided", Opt: SchedOptions{Seed: 42}},
		)
		for _, model := range models {
			// One value run twice: each run must build its own scheduler.
			r1 := model.Run(w, cluster.New(cfg))
			r2 := model.Run(w, cluster.New(cfg))
			if r1.Makespan != r2.Makespan {
				t.Logf("%s: %v != %v (seed %d)", model.Name(), r1.Makespan, r2.Makespan, seed)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Fatal(err)
	}
}

// Monotonicity in machine size: for cost-oblivious models on a quiet
// homogeneous machine, doubling the ranks never increases the makespan by
// more than rounding effects.
func TestPropertyScalingMonotone(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		w := Synthetic(SyntheticOptions{
			NumTasks: 64 + rng.Intn(512),
			Dist:     "triangular",
			Seed:     rng.Int63(),
		})
		for _, name := range []string{"static-cyclic", "dynamic-counter", "work-stealing"} {
			model := Model{Sched: name, Opt: SchedOptions{Seed: 7}}
			prev := model.Run(w, cluster.New(cluster.Config{Ranks: 2, Seed: 1})).Makespan
			for _, p := range []int{4, 8, 16} {
				cur := model.Run(w, cluster.New(cluster.Config{Ranks: p, Seed: 1})).Makespan
				// Allow 5% slack: queue-tail granularity is not strictly
				// monotone.
				if cur > prev*1.05 {
					t.Logf("%s: P=%d makespan %v > P/2 %v", name, p, cur, prev)
					return false
				}
				prev = cur
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}
