package core

import (
	"reflect"
	"testing"

	"execmodels/internal/cluster"
)

// TestWorkStealingDeterministic is the regression test behind the
// execlint determinism policy: with the same seed and an identically
// configured machine, two work-stealing runs must agree bit-for-bit —
// same makespan, same per-rank task counts, same steal statistics. If
// this breaks, someone reintroduced a global RNG or a wall-clock
// dependency into the scheduling path, and every model comparison in the
// paper reproduction becomes unreplayable.
func TestWorkStealingDeterministic(t *testing.T) {
	w := Synthetic(SyntheticOptions{
		NumTasks: 500,
		Dist:     "lognormal",
		Sigma:    1.5,
		EstNoise: 0.2,
		Seed:     7,
	})
	cfg := cluster.Config{Ranks: 8, Seed: 11, Heterogeneity: 0.3}

	models := []StealingSched{
		{Seed: 42},
		{Seed: 42, Steal: StealOne},
		{Seed: 42, Victim: MostLoadedVictim},
	}
	for _, ws := range models {
		// Fresh machines with the same config: the machine's own noise
		// stream is part of the seed contract.
		r1 := RunScheduler(ws, w, cluster.New(cfg))
		r2 := RunScheduler(ws, w, cluster.New(cfg))

		if r1.Makespan != r2.Makespan {
			t.Errorf("%s: makespan differs across identically seeded runs: %v vs %v",
				ws.Name(), r1.Makespan, r2.Makespan)
		}
		if !reflect.DeepEqual(r1.TasksRun, r2.TasksRun) {
			t.Errorf("%s: per-rank task counts differ: %v vs %v", ws.Name(), r1.TasksRun, r2.TasksRun)
		}
		if r1.Steals != r2.Steals || r1.FailedSteals != r2.FailedSteals {
			t.Errorf("%s: steal statistics differ: (%d,%d) vs (%d,%d)", ws.Name(),
				r1.Steals, r1.FailedSteals, r2.Steals, r2.FailedSteals)
		}

		// A different seed must actually change the schedule — otherwise
		// the seed is not plumbed through and the test above passes
		// vacuously.
		r3 := RunScheduler(StealingSched{Seed: 43, Steal: ws.Steal, Victim: ws.Victim}, w, cluster.New(cfg))
		if ws.Victim != MostLoadedVictim && reflect.DeepEqual(r1.TasksRun, r3.TasksRun) && r1.Steals == r3.Steals {
			t.Errorf("%s: seed 42 and 43 produced identical schedules; seed is not reaching the RNG", ws.Name())
		}
	}
}
