package core

import (
	"math"
	"testing"

	"execmodels/internal/cluster"
	"execmodels/internal/obs"
)

// Invariant tests for the blame analysis: the decomposition of makespan ×
// ranks into compute/comm/counter/steal/idle must be *exact* (to
// float-rounding tolerance) for every execution model at P=64. A component
// that double-charges a window, or a charge past a rank's finish time,
// breaks the identity and fails here.

func TestBlameDecompositionExact(t *testing.T) {
	const ranks = 64
	w := Synthetic(SyntheticOptions{NumTasks: 2048, Dist: "lognormal", Sigma: 1.2, Seed: 3})

	for _, model := range AllModels(1) {
		t.Run(model.Name(), func(t *testing.T) {
			m := cluster.New(cluster.Config{Ranks: ranks, Seed: 1})
			m.Trace = &cluster.Trace{}
			res := model.Run(w, m)
			b := res.Blame(m.Trace)

			// The central identity: components (idle included) sum to
			// makespan × ranks. Tolerance is ulp-scale relative to the
			// total — ~1e-9 relative covers the few thousand float adds.
			total := b.Makespan * float64(b.Ranks)
			if got := b.Total(); math.Abs(got-total) > 1e-9*math.Max(total, 1) {
				t.Errorf("blame components sum to %.12g, want makespan×P = %.12g (diff %g)",
					got, total, got-total)
			}

			// Idle is a per-rank remainder; a negative one means some rank
			// was charged past its finish time.
			for r, idle := range b.IdleByRank {
				if idle < -1e-9*math.Max(total, 1) {
					t.Errorf("rank %d idle = %g < 0: charges exceed the rank's finish time", r, idle)
				}
			}

			// Critical path cannot exceed the makespan...
			if b.CriticalPathSeconds > b.Makespan*(1+1e-12) {
				t.Errorf("critical path %.12g > makespan %.12g", b.CriticalPathSeconds, b.Makespan)
			}
			// ...and the makespan cannot beat the perfect-balance bound:
			// total executed compute seconds spread over P ranks. (Each
			// rank's busy time is ≤ its finish time ≤ the makespan.)
			if bound := b.Components["compute"] / float64(ranks); b.Makespan < bound*(1-1e-12) {
				t.Errorf("makespan %.12g beats the compute/P bound %.12g", b.Makespan, bound)
			}

			if b.Components["compute"] <= 0 {
				t.Errorf("compute component is %g, want > 0", b.Components["compute"])
			}
		})
	}
}

// TestBlameMatchesResultView pins the derived-view contract: the legacy
// Result fields and the registry must agree, since the registry is now
// the primary store.
func TestBlameMatchesResultView(t *testing.T) {
	w := Synthetic(SyntheticOptions{NumTasks: 512, Dist: "lognormal", Sigma: 1.0, Seed: 5})
	m := cluster.New(cluster.Config{Ranks: 16, Seed: 2})
	res := RunScheduler(StealingSched{Seed: 7}, w, m)

	if got, want := res.Obs.GaugeTotal(obs.MBusy), sum(res.BusyTime); got != want {
		t.Errorf("registry busy %g != Result.BusyTime %g", got, want)
	}
	if got, want := res.Obs.CounterTotal(obs.CTasks), int64(len(w.Tasks)); got != want {
		t.Errorf("registry tasks %d != %d", got, want)
	}
	if got, want := res.Obs.CounterTotal(obs.CSteals), res.Steals; got != want {
		t.Errorf("registry steals %d != Result.Steals %d", got, want)
	}
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}
