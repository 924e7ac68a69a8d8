package bench

import (
	"execmodels/internal/chem"
	"execmodels/internal/cluster"
	"execmodels/internal/core"
)

// Figure1 reproduces the task-cost distribution of the Fock-build kernel:
// a log-spaced histogram of per-task flop estimates. The paper's premise —
// a strongly irregular, heavy-tailed cost profile — must be visible here.
func (s *Suite) Figure1() *Table {
	s.prepare()
	costs := make([]float64, len(s.work.Tasks))
	for i, t := range s.work.Tasks {
		costs[i] = t.Cost
	}
	maxOverMean, cv, g := costSpread(costs)
	t := &Table{
		ID:     "F1",
		Title:  f("task-cost distribution, %s, %d tasks", s.work.Name, len(costs)),
		Header: []string{"cost-bucket-lo(flop)", "cost-bucket-hi(flop)", "tasks", "bar"},
	}
	for _, b := range histogram(costs, 12) {
		bar := ""
		for i := 0; i < b.Count*60/len(costs)+1 && b.Count > 0; i++ {
			bar += "#"
		}
		t.Rows = append(t.Rows, []string{
			f("%.3g", b.Lo), f("%.3g", b.Hi), f("%d", b.Count), bar,
		})
	}
	t.Notes = append(t.Notes,
		f("max/mean = %.2f, cv = %.2f, gini = %.2f — irregular, as the paper's kernel requires",
			maxOverMean, cv, g))
	return t
}

// Figure2 reproduces the strong-scaling study: simulated execution time
// versus rank count for every execution model.
func (s *Suite) Figure2() *Table {
	s.prepare()
	t := &Table{
		ID:     "F2",
		Title:  f("strong scaling, %s (%d tasks)", s.work.Name, len(s.work.Tasks)),
		Header: []string{"model"},
	}
	ranks := s.rankSweep()
	for _, p := range ranks {
		t.Header = append(t.Header, f("P=%d", p))
	}
	for _, model := range core.AllModels(s.Seed) {
		row := []string{model.Name()}
		for _, p := range ranks {
			res := model.Run(s.work, s.machine(p))
			row = append(row, f("%.4g", res.Makespan))
		}
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes,
		"expected shape: static-block flattens early (triangular pair costs); "+
			"work stealing and the balanced assignments track the ideal until task starvation")
	return t
}

// Figure3 reproduces the granularity sweep: execution time versus
// work-unit block size. The paper's lesson about "the correct balance
// between available work units and system and runtime overheads" shows up
// as U-shaped curves with model-dependent minima.
func (s *Suite) Figure3() *Table {
	s.prepare()
	// Make runtime overheads visible at this scale: a slower network and a
	// costlier counter sharpen the small-block side of the U.
	mk := func(p int) *cluster.Machine {
		return cluster.New(cluster.Config{
			Ranks:          p,
			Seed:           s.Seed,
			Latency:        10e-6,
			CounterService: 4e-6,
			TaskOverhead:   20e-6,
		})
	}
	p := s.maxRanks()
	blockSizes := []int{1, 2, 4, 8, 16, 32, 64}
	t := &Table{
		ID:     "F3",
		Title:  f("granularity sweep at P=%d: time vs bra-pair block size", p),
		Header: []string{"block-size", "tasks", "dynamic-counter", "work-stealing", "static-cyclic"},
	}
	for _, bsz := range blockSizes {
		fw := chem.BuildFockWorkloadFromPairs(s.bs, s.pairs, 1e-9, bsz)
		w := core.FromFock(fw)
		dyn := core.RunScheduler(core.CounterSched{Chunk: 1}, w, mk(p))
		steal := core.RunScheduler(core.StealingSched{Seed: s.Seed}, w, mk(p))
		cyc := core.RunScheduler(core.StaticCyclicSched{}, w, mk(p))
		t.Rows = append(t.Rows, []string{
			f("%d", bsz), f("%d", len(w.Tasks)),
			f("%.4g", dyn.Makespan), f("%.4g", steal.Makespan), f("%.4g", cyc.Makespan),
		})
	}
	t.Notes = append(t.Notes,
		"expected shape: U-curve — small blocks drown in per-task/runtime overhead, "+
			"large blocks starve ranks and re-create imbalance; the dynamic model's minimum "+
			"sits at larger blocks than stealing's because every task costs a counter round-trip")
	return t
}

// Figure4 reproduces the performance-variability experiment: slowdown of
// each model as per-rank speed variation grows — the "energy-induced
// performance variability" the paper closes on.
//
// The workload is the controlled triangular distribution rather than the
// raw chemistry workload: the chemistry task set carries one monster task
// whose critical path dominates the makespan at scale, reducing every
// model to "which rank drew the monster" — a single-task bound no
// scheduler can influence (visible in T2's efficiency column). The
// triangular profile keeps max/mean ≈ 2 so the per-rank aggregate, which
// scheduling *can* influence, stays the bottleneck.
func (s *Suite) Figure4() *Table {
	s.prepare()
	p := s.maxRanks()
	work := core.Synthetic(core.SyntheticOptions{
		NumTasks: 256 * p, Dist: "triangular", Seed: s.Seed,
	})
	hets := []float64{0, 0.1, 0.2, 0.3, 0.4}
	models := []core.Scheduler{
		core.StaticBlockSched{},
		core.StaticCyclicSched{},
		core.CounterSched{Chunk: 1},
		core.StealingSched{Seed: s.Seed},
	}
	t := &Table{
		ID:     "F4",
		Title:  f("slowdown vs per-rank speed variability at P=%d (makespan / quiet makespan)", p),
		Header: []string{"model"},
	}
	for _, h := range hets {
		t.Header = append(t.Header, f("h=%.1f", h))
	}
	// Average over several machine draws: a single draw is dominated by
	// the luck of which speed the pre-existing bottleneck rank gets.
	const draws = 7
	for _, model := range models {
		var base float64
		row := []string{model.Name()}
		for i, h := range hets {
			var mean float64
			for d := 0; d < draws; d++ {
				m := cluster.New(cluster.Config{Ranks: p, Heterogeneity: h, Seed: s.Seed + int64(100*d)})
				mean += core.RunScheduler(model, work, m).Makespan
			}
			mean /= draws
			if i == 0 {
				base = mean
			}
			row = append(row, f("%.3f", mean/base))
		}
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes,
		f("averaged over %d machine draws; expected shape: static models degrade toward 1/min(speed); "+
			"dynamic and stealing stay near flat", draws))
	return t
}

// Figure5 reproduces the runtime-traffic scaling study: shared-counter
// operations/contention and steal counts versus rank count — why the
// centralized dynamic model stops scaling.
func (s *Suite) Figure5() *Table {
	s.prepare()
	ranks := []int{4, 8, 16, 32, 64, 128}
	if s.Scale == "paper" {
		ranks = append(ranks, 256)
	}
	t := &Table{
		ID:     "F5",
		Title:  "runtime traffic vs ranks: counter contention vs steal volume",
		Header: []string{"P", "counter-ops", "counter-wait(s)", "dyn-makespan", "steals", "failed-steals", "steal-makespan"},
	}
	for _, p := range ranks {
		m := s.machine(p)
		dyn := core.RunScheduler(core.CounterSched{Chunk: 1}, s.work, m)
		st := core.RunScheduler(core.StealingSched{Seed: s.Seed}, s.work, m)
		t.Rows = append(t.Rows, []string{
			f("%d", p),
			f("%d", dyn.CounterOps), f("%.3g", dyn.CounterWait), f("%.4g", dyn.Makespan),
			f("%d", st.Steals), f("%d", st.FailedSteals), f("%.4g", st.Makespan),
		})
	}
	t.Notes = append(t.Notes,
		"expected shape: counter ops stay ~constant but queueing wait grows with P; "+
			"steals grow roughly linearly in P while total steal traffic stays a tiny fraction of work")
	return t
}
