package core_test

import (
	"fmt"

	"execmodels/internal/cluster"
	"execmodels/internal/core"
)

// Compare two execution models on the same irregular workload and
// machine. Work stealing adapts to the triangular cost profile that
// cripples the static block schedule.
func ExampleModel() {
	w := core.Synthetic(core.SyntheticOptions{
		NumTasks: 1024,
		Dist:     "triangular",
		Seed:     1,
	})
	m := cluster.New(cluster.Config{Ranks: 16, Seed: 1})

	static := core.Model{Sched: "static"}.Run(w, m)
	steal := core.Model{Sched: "stealing", Opt: core.SchedOptions{Seed: 1}}.Run(w, m)
	fmt.Printf("static-block imbalance %.2f\n", static.LoadImbalance())
	fmt.Printf("work-stealing imbalance %.2f\n", steal.LoadImbalance())
	fmt.Println("stealing faster:", steal.Makespan < static.Makespan)
	// Output:
	// static-block imbalance 1.94
	// work-stealing imbalance 1.04
	// stealing faster: true
}
