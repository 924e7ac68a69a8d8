package core

import (
	"sync"
	"testing"

	"execmodels/internal/chem"
	"execmodels/internal/cluster"
)

// Differential cross-model sweep: whatever an execution model does with
// *scheduling*, it must not change *what* is computed. Every executor must
// execute the exact same task multiset with identical per-task flop totals
// on the (H₂O)₁₆ chemistry workload. A model that loses a task,
// runs one twice, or charges a different cost for it fails here in one
// sweep, without any reference to makespans.

var (
	waterOnce sync.Once
	waterWork *Workload
)

// water16 builds (once) the paper-scale (H₂O)₁₆ STO-3G Fock workload.
func water16(t *testing.T) *Workload {
	t.Helper()
	waterOnce.Do(func() {
		mol := chem.WaterCluster(16, 1)
		bs, err := chem.NewBasis("sto-3g", mol)
		if err != nil {
			t.Fatalf("basis: %v", err)
		}
		pairs := chem.SchwarzBounds(bs)
		waterWork = FromFock(chem.BuildFockWorkloadFromPairs(bs, pairs, 1e-9, 4))
	})
	if waterWork == nil {
		t.Fatal("water16 workload failed to build")
	}
	return waterWork
}

// taskFlops replays the trace's task spans into (executions, flops) per
// task ID.
func taskFlops(t *testing.T, w *Workload, trace *cluster.Trace) (execs []int, flops []float64) {
	t.Helper()
	execs = make([]int, len(w.Tasks))
	flops = make([]float64, len(w.Tasks))
	for _, iv := range trace.Intervals {
		if iv.Activity != "task" {
			continue
		}
		if iv.TaskID < 0 || iv.TaskID >= len(w.Tasks) {
			t.Fatalf("task span with out-of-range ID %d", iv.TaskID)
		}
		execs[iv.TaskID]++
		flops[iv.TaskID] += w.Tasks[iv.TaskID].Cost
	}
	return execs, flops
}

func TestDifferentialCrossModel(t *testing.T) {
	w := water16(t)
	const ranks = 64

	models := AllModels(1)
	if len(models) != 7 {
		t.Fatalf("expected 7 models, have %d", len(models))
	}

	// Reference per-execution flops: what one clean pass over the
	// workload computes.
	refFlops := make([]float64, len(w.Tasks))
	for i, task := range w.Tasks {
		refFlops[i] = task.Cost
	}

	for _, model := range models {
		t.Run(model.Name(), func(t *testing.T) {
			m := cluster.New(cluster.Config{Ranks: ranks, Seed: 1})
			m.Trace = &cluster.Trace{}
			res := model.Run(w, m)

			execs, flops := taskFlops(t, w, m.Trace)

			// Every task appears a uniform number of times k ≥ 1: k = 1
			// for single-pass models, k = Iterations for the persistence
			// family (whose final trace may span all iterations). Any
			// lost or duplicated task breaks uniformity.
			k := execs[0]
			if k < 1 {
				t.Fatalf("task 0 never executed")
			}
			for id, n := range execs {
				if n != k {
					t.Errorf("task %d executed %d times, task 0 executed %d — schedule lost or duplicated work", id, n, k)
				}
			}

			// Per-task flop totals are k × the workload's own cost — the
			// schedule moved work around but computed exactly the same
			// thing as every other model.
			for id, got := range flops {
				want := float64(k) * refFlops[id]
				if got != want {
					t.Errorf("task %d: flop total %g, want %g", id, got, want)
				}
			}

			var ran int
			for _, n := range res.TasksRun {
				ran += n
			}
			if ran == 0 || ran%len(w.Tasks) != 0 {
				t.Errorf("TasksRun sums to %d, want a positive multiple of %d", ran, len(w.Tasks))
			}
		})
	}
}
