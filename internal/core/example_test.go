package core_test

import (
	"fmt"

	"execmodels/internal/cluster"
	"execmodels/internal/core"
)

// Compare two execution models on the same irregular workload and
// machine. Work stealing adapts to the triangular cost profile of a Fock
// build's pair loop (task i costs ~2i/n of the mean) that cripples the
// static block schedule.
func ExampleModel() {
	w := core.Synthetic(core.SyntheticOptions{
		NumTasks: 4096,
		Dist:     "triangular",
		Seed:     42,
	})
	fmt.Printf("workload: %s, %d tasks, max/mean cost = %.2f\n",
		w.Name, len(w.Tasks), w.CostImbalance())

	// A 32-rank machine: homogeneous speeds, RDMA-class network.
	m := cluster.New(cluster.Config{Ranks: 32, Seed: 1})
	ideal := m.IdealTime(w.TotalCost())
	fmt.Printf("ideal (perfect balance, zero overhead): %.4g s\n\n", ideal)

	static := core.Model{Sched: "static"}.Run(w, m)
	steal := core.Model{Sched: "stealing", Opt: core.SchedOptions{Seed: 1}}.Run(w, m)
	for _, r := range []*core.Result{static, steal} {
		fmt.Printf("%-14s makespan %.4g s   imbalance %.3f   efficiency %.0f%%\n",
			r.Model, r.Makespan, r.LoadImbalance(), 100*r.Efficiency(ideal))
	}
	improvement := (static.Makespan - steal.Makespan) / static.Makespan * 100
	fmt.Printf("\nwork stealing improves on static scheduling by %.1f%% "+
		"(the paper's headline result is ~50%%)\n", improvement)
	// Output:
	// workload: synthetic-triangular-4096, 4096 tasks, max/mean cost = 2.00
	// ideal (perfect balance, zero overhead): 0.128 s
	//
	// static-block   makespan 0.258 s   imbalance 1.968   efficiency 50%
	// work-stealing  makespan 0.1359 s   imbalance 1.026   efficiency 94%
	//
	// work stealing improves on static scheduling by 47.3% (the paper's headline result is ~50%)
}
