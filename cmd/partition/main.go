// partition compares the load-balancing algorithms head to head on a
// workload: semi-matching (cheap) versus multilevel hypergraph
// partitioning (expensive) versus plain LPT, reporting load balance,
// communication cut and the real cost of computing each assignment.
//
// Usage:
//
//	partition -tasks 8000 -parts 64
//	partition -tasks 2000 -parts 16 -dist triangular
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"execmodels/internal/core"
	"execmodels/internal/hypergraph"
	"execmodels/internal/semimatching"
	"execmodels/internal/stats"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("partition: ")
	var (
		tasks    = flag.Int("tasks", 4000, "number of tasks")
		parts    = flag.Int("parts", 32, "number of parts (ranks)")
		dist     = flag.String("dist", "lognormal", "cost distribution: uniform | lognormal | bimodal | triangular")
		sigma    = flag.Float64("sigma", 1.0, "lognormal shape")
		seed     = flag.Int64("seed", 1, "workload seed")
		workload = flag.String("workload", "", "load a workload JSON (e.g. from benchsuite -dump) instead of synthesizing")
	)
	flag.Parse()

	var w *core.Workload
	if *workload != "" {
		f, err := os.Open(*workload)
		if err != nil {
			log.Fatal(err)
		}
		w, err = core.ReadWorkload(f)
		f.Close()
		if err != nil {
			log.Fatal(err)
		}
	} else {
		w = core.Synthetic(core.SyntheticOptions{
			NumTasks: *tasks, Dist: *dist, Sigma: *sigma, Seed: *seed,
		})
	}
	est := make([]float64, len(w.Tasks))
	for i, t := range w.Tasks {
		est[i] = t.EstCost
	}
	fmt.Printf("workload: %d tasks, %d blocks, cost max/mean %.2f; %d parts\n\n",
		len(w.Tasks), w.NumBlocks, w.CostImbalance(), *parts)
	fmt.Printf("%-15s %-12s %-12s %-14s %-12s\n",
		"algorithm", "imbalance", "gini", "cut(bytes)", "cost")

	h := core.BuildHypergraph(w)
	report := func(name string, assign []int, elapsed time.Duration) {
		loads := make([]float64, *parts)
		for i, p := range assign {
			loads[p] += w.Tasks[i].Cost
		}
		fmt.Printf("%-15s %-12.4f %-12.4f %-14.4g %-12v\n",
			name,
			stats.LoadImbalance(loads),
			stats.Gini(loads),
			hypergraph.ConnectivityCut(h, assign, *parts),
			elapsed.Round(time.Microsecond))
	}

	g := core.TaskGraph(w, *parts, *seed)

	start := time.Now()
	lpt := semimatching.LPT(g, est)
	report("lpt", lpt.Of, time.Since(start))

	start = time.Now()
	sm := semimatching.WeightedSemiMatch(g, est)
	report("semi-matching", sm.Of, time.Since(start))

	start = time.Now()
	hg := hypergraph.Partition(h, *parts, hypergraph.Options{Seed: *seed})
	report("hypergraph", hg.Part, time.Since(start))

	fmt.Println("\nsemi-matching should match hypergraph balance at a fraction of the cost;")
	fmt.Println("hypergraph wins on the communication cut, which is what it optimizes.")
}
