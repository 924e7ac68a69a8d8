// Granularity: the trade-off between available work units and runtime
// overheads. Small tasks balance beautifully but drown in per-task and
// counter costs; huge tasks starve ranks. Each execution model has its own
// sweet spot — "finding the correct balance" is one of the paper's main
// lessons.
//
//	go run ./examples/granularity [-waters n] [-ranks p]
package main

import (
	"flag"
	"fmt"
	"log"

	"execmodels/internal/chem"
	"execmodels/internal/cluster"
	"execmodels/internal/core"
)

func main() {
	waters := flag.Int("waters", 3, "water molecules in the cluster")
	ranks := flag.Int("ranks", 16, "simulated ranks")
	flag.Parse()

	mol := chem.WaterCluster(*waters, 7)
	bs, err := chem.NewBasis("sto-3g", mol)
	if err != nil {
		log.Fatal(err)
	}
	pairs := chem.SchwarzBounds(bs)

	machine := func() *cluster.Machine {
		// A network slow enough that runtime overheads are visible.
		return cluster.New(cluster.Config{
			Ranks: *ranks, Seed: 1,
			Latency: 10e-6, CounterService: 4e-6, TaskOverhead: 20e-6,
		})
	}

	fmt.Printf("%s: makespan (simulated s) vs bra-pair block size at P=%d\n\n", mol.Name, *ranks)
	fmt.Printf("%-10s %-7s %-16s %-16s %-16s\n",
		"block", "tasks", "dynamic-counter", "work-stealing", "static-cyclic")
	for _, blockSize := range []int{1, 2, 4, 8, 16, 32, 64} {
		fw := chem.BuildFockWorkloadFromPairs(bs, pairs, 1e-9, blockSize)
		w := core.FromFock(fw)
		dyn := core.RunScheduler(core.CounterSched{Chunk: 1}, w, machine())
		st := core.RunScheduler(core.StealingSched{Seed: 1}, w, machine())
		cyc := core.RunScheduler(core.StaticCyclicSched{}, w, machine())
		fmt.Printf("%-10d %-7d %-16.5g %-16.5g %-16.5g\n",
			blockSize, len(w.Tasks), dyn.Makespan, st.Makespan, cyc.Makespan)
	}
	fmt.Println("\nexpect U-shaped curves with model-dependent minima: the dynamic model")
	fmt.Println("pays a counter round-trip per task, so its minimum sits at larger blocks.")
}
