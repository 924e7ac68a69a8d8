// Variability: how each execution model degrades as per-rank speed
// variability grows — the "energy-induced performance variability" of
// emerging platforms the paper closes on. Static schedules are hostage to
// the slowest rank; dynamic models route around it.
//
//	go run ./examples/variability [-ranks p]
package main

import (
	"flag"
	"fmt"

	"execmodels/internal/cluster"
	"execmodels/internal/core"
)

func main() {
	ranks := flag.Int("ranks", 32, "simulated ranks")
	flag.Parse()

	w := core.Synthetic(core.SyntheticOptions{
		NumTasks: 4096, Dist: "triangular", Seed: 3,
	})
	models := []core.Scheduler{
		core.StaticCyclicSched{},
		core.CounterSched{Chunk: 1},
		core.StealingSched{Seed: 3},
	}
	hets := []float64{0, 0.1, 0.2, 0.3, 0.4}

	fmt.Printf("slowdown (makespan / quiet makespan) at P=%d as per-rank speed spread grows\n\n", *ranks)
	fmt.Printf("%-16s", "model")
	for _, h := range hets {
		fmt.Printf("  h=%.1f", h)
	}
	fmt.Println()
	for _, model := range models {
		fmt.Printf("%-16s", model.Name())
		var base float64
		for i, h := range hets {
			m := cluster.New(cluster.Config{Ranks: *ranks, Heterogeneity: h, Seed: 5})
			res := core.RunScheduler(model, w, m)
			if i == 0 {
				base = res.Makespan
			}
			fmt.Printf("  %5.3f", res.Makespan/base)
		}
		fmt.Println()
	}
	fmt.Println("\nstatic-cyclic tracks 1/min(rank speed); the dynamic models stay nearly flat.")
}
