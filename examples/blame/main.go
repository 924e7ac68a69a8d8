// Blame: a walkthrough of the observability layer (internal/obs). Every
// executor feeds a typed metric registry and a span trace as it runs;
// AnalyzeBlame then decomposes the run's total rank-seconds — makespan ×
// P — *exactly* into compute, communication, counter traffic, stealing
// and idle, and reports the critical path. Because the registry is fed
// from virtual clocks only, running this twice prints byte-identical
// output: the entire analysis is a pure function of (workload, machine,
// seed).
//
//	go run ./examples/blame [-ranks p]
package main

import (
	"flag"
	"fmt"

	"execmodels/internal/cluster"
	"execmodels/internal/core"
)

func main() {
	ranks := flag.Int("ranks", 16, "simulated ranks")
	flag.Parse()

	// A skewed synthetic workload: lognormal task costs make the blame
	// shares differ sharply between static and dynamic models.
	w := core.Synthetic(core.SyntheticOptions{
		NumTasks: 1024, Dist: "lognormal", Sigma: 1.4, Seed: 3,
	})
	cfg := cluster.Config{Ranks: *ranks, Heterogeneity: 0.2, Seed: 5}

	fmt.Println("where do the rank-seconds go?")
	fmt.Println()
	for _, model := range []core.Model{
		{Sched: "static"},
		{Sched: "dynamic"},
		{Sched: "stealing", Opt: core.SchedOptions{Seed: 42}},
		{Sched: "persistence"},
	} {
		m := cluster.New(cfg)
		m.Trace = &cluster.Trace{}
		b := model.Run(w, m).Blame(m.Trace)
		fmt.Print(b.Table())
		// The blame identity: components (idle included) sum to
		// makespan × P exactly.
		fmt.Printf("  identity check: sum of components = %.9gs, makespan×P = %.9gs\n\n",
			b.Total(), b.Makespan*float64(b.Ranks))
	}

	fmt.Println("reading the tables: static-block's idle is imbalance the paper's dynamic models")
	fmt.Println("reclaim — they convert it into (much smaller) counter and steal components.")
}
