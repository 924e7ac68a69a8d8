package core

import (
	"testing"

	"execmodels/internal/hypergraph"
	"execmodels/internal/semimatching"
)

// Fuzz target for the T3/T4 comparability claim as an executable
// invariant: on any task-cost vector, both the semi-matching and the
// hypergraph partitioner must produce complete, duplicate-free
// assignments, and the semi-matching's load imbalance must stay within 2×
// the hypergraph's (plus one task granularity of slack — no list
// scheduler can split a task).
//
//	go test ./internal/core -fuzz FuzzSemiVsHypergraphAssignment -fuzztime 30s

// fuzzWorkload decodes a byte string into a small workload: one task per
// byte, cost 1..256, touching two deterministic blocks.
func fuzzWorkload(data []byte) *Workload {
	const maxTasks = 512
	if len(data) > maxTasks {
		data = data[:maxTasks]
	}
	w := &Workload{Name: "fuzz", NumBlocks: 16}
	w.BlockBytes = make([]int, w.NumBlocks)
	for b := range w.BlockBytes {
		w.BlockBytes[b] = 1024 * (1 + b%4)
	}
	for i, c := range data {
		cost := float64(c) + 1
		w.Tasks = append(w.Tasks, Task{
			ID: i, Cost: cost, EstCost: cost,
			Blocks: []int{i % w.NumBlocks, (i * 7) % w.NumBlocks},
		})
	}
	return w
}

func FuzzSemiVsHypergraphAssignment(f *testing.F) {
	f.Add([]byte{1})
	f.Add([]byte{255, 1, 1, 1, 1, 1, 1, 1})
	f.Add([]byte("the quick brown fox jumps over the lazy dog"))
	f.Add(bytesRamp(200))

	const ranks = 8
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		w := fuzzWorkload(data)
		n := len(w.Tasks)

		est := make([]float64, n)
		for i, task := range w.Tasks {
			est[i] = task.EstCost
		}

		semi := semimatching.WeightedSemiMatch(TaskGraph(w, ranks, 1), est).Of
		hyper := hypergraph.Partition(BuildHypergraph(w), ranks, hypergraph.Options{Seed: 1}).Part

		check := func(name string, assign []int) []float64 {
			t.Helper()
			if len(assign) != n {
				t.Fatalf("%s: assigned %d of %d tasks", name, len(assign), n)
			}
			load := make([]float64, ranks)
			for id, r := range assign {
				if r < 0 || r >= ranks {
					t.Fatalf("%s: task %d assigned to rank %d of %d", name, id, r, ranks)
				}
				load[r] += w.Tasks[id].Cost
			}
			return load
		}
		semiLoad := check("semi-matching", semi)
		hyperLoad := check("hypergraph", hyper)

		var maxTask float64
		for _, task := range w.Tasks {
			if task.Cost > maxTask {
				maxTask = task.Cost
			}
		}
		maxLoad := func(load []float64) float64 {
			m := load[0]
			for _, l := range load[1:] {
				if l > m {
					m = l
				}
			}
			return m
		}
		// Imbalance comparability: one task of additive slack absorbs the
		// indivisible-granularity floor both schemes share.
		if s, h := maxLoad(semiLoad), maxLoad(hyperLoad); s > 2*h+maxTask {
			t.Errorf("semi-matching max load %g exceeds 2× hypergraph %g + task granularity %g", s, h, maxTask)
		}
	})
}

func bytesRamp(n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = byte(i * 5)
	}
	return out
}
