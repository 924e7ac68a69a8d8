package bench

import (
	"runtime"

	"execmodels/internal/chem"
	"execmodels/internal/core"
	"execmodels/internal/linalg"
	"execmodels/internal/semimatching"
)

// AblationWallVsSim (A1) cross-validates the simulated-time executors
// against real wall-clock execution of the actual chemistry kernel on
// goroutines: the *ordering* of models (and roughly their ratios) must
// agree between the two measurement modes.
func (s *Suite) AblationWallVsSim() *Table {
	s.prepare()
	workers := runtime.GOMAXPROCS(0)
	if workers > 8 {
		workers = 8
	}
	n := s.bs.NBF
	h := chem.CoreHamiltonian(s.bs, s.mol)
	d := linalg.Identity(n)

	simMachine := s.machine(workers)
	t := &Table{
		ID:     "A1",
		Title:  f("wall-clock vs simulated time, %d workers/ranks", workers),
		Header: []string{"model", "wall(s)", "wall-imbalance", "sim(s)", "sim-imbalance"},
	}
	for _, name := range []string{"static", "dynamic", "stealing"} {
		sched, err := core.SchedulerByName(name, core.SchedOptions{Seed: s.Seed, Block: 1})
		if err != nil {
			panic(err)
		}
		ws, err := core.NewWallScheduler(name, workers, core.WallOptions{Seed: s.Seed, Block: 1})
		if err != nil {
			panic(err)
		}
		wr, err := ws.Build(s.fock, h, d)
		if err != nil {
			panic(err)
		}
		sr := core.RunScheduler(sched, s.work, simMachine)
		t.Rows = append(t.Rows, []string{
			sched.Name(),
			f("%.4g", wr.Elapsed.Seconds()), f("%.3f", wr.LoadImbalance()),
			f("%.4g", sr.Makespan), f("%.3f", sr.LoadImbalance()),
		})
	}
	t.Notes = append(t.Notes,
		"expected: identical ordering (static slowest) in both columns when GOMAXPROCS > 1; "+
			"absolute values differ (the simulator is not calibrated to this host); "+
			"on a single-core host the wall column degenerates to serial time and only the "+
			"imbalance columns remain comparable")
	return t
}

// AblationUniformCosts (A2) demonstrates DESIGN.md decision 2: with
// artificially uniform task costs, the differences between execution
// models collapse — irregularity is the whole story.
func (s *Suite) AblationUniformCosts() *Table {
	s.prepare()
	p := s.maxRanks()
	uniform := core.Synthetic(core.SyntheticOptions{
		NumTasks: len(s.work.Tasks), Dist: "uniform", Seed: s.Seed,
	})
	t := &Table{
		ID:     "A2",
		Title:  f("uniform-cost ablation at P=%d: real kernel costs vs flat costs", p),
		Header: []string{"model", "fock-makespan(s)", "uniform-makespan(s)"},
	}
	for _, model := range []core.Scheduler{
		core.StaticBlockSched{}, core.StaticCyclicSched{}, core.StealingSched{Seed: s.Seed},
	} {
		rf := core.RunScheduler(model, s.work, s.machine(p))
		ru := core.RunScheduler(model, uniform, s.machine(p))
		t.Rows = append(t.Rows, []string{
			model.Name(), f("%.4g", rf.Makespan), f("%.4g", ru.Makespan),
		})
	}
	t.Notes = append(t.Notes,
		"expected: wide spread in the fock column, near-identical uniform column")
	return t
}

// AblationStealPolicy (A3) compares steal-half vs steal-one and random vs
// most-loaded victim selection.
func (s *Suite) AblationStealPolicy() *Table {
	s.prepare()
	p := s.maxRanks()
	t := &Table{
		ID:     "A3",
		Title:  f("steal policy ablation at P=%d", p),
		Header: []string{"policy", "makespan(s)", "steals", "failed", "steal-time(s)"},
	}
	for _, ws := range []core.StealingSched{
		{Seed: s.Seed},                                // half + random
		{Steal: core.StealOne, Seed: s.Seed},          // one + random
		{Victim: core.MostLoadedVictim, Seed: s.Seed}, // half + oracle
		{Steal: core.StealOne, Victim: core.MostLoadedVictim, Seed: s.Seed},
	} {
		res := core.RunScheduler(ws, s.work, s.machine(p))
		t.Rows = append(t.Rows, []string{
			ws.Name(), f("%.4g", res.Makespan),
			f("%d", res.Steals), f("%d", res.FailedSteals), f("%.3g", res.StealTime),
		})
	}
	t.Notes = append(t.Notes,
		"expected: steal-half needs far fewer steals; the oracle victim mainly cuts failed attempts")
	return t
}

// AblationLPT (A4) compares the weighted semi-matching (LPT + alternating
// refinement) against plain LPT on the same restricted bipartite graph.
func (s *Suite) AblationLPT() *Table {
	s.prepare()
	p := s.maxRanks()
	b := core.TaskGraph(s.work, p, s.Seed)
	est := make([]float64, len(s.work.Tasks))
	for i, task := range s.work.Tasks {
		est[i] = task.EstCost
	}
	lpt := semimatching.LPT(b, est)
	refined := semimatching.WeightedSemiMatch(b, est)
	t := &Table{
		ID:     "A4",
		Title:  f("semi-matching refinement vs plain LPT at P=%d (load units: flops)", p),
		Header: []string{"algorithm", "max-load", "imbalance(max/mean)"},
	}
	mean := s.work.TotalCost() / float64(p)
	t.Rows = append(t.Rows, []string{
		"lpt", f("%.4g", lpt.Makespan()), f("%.4f", lpt.Makespan()/mean)})
	t.Rows = append(t.Rows, []string{
		"semi-matching", f("%.4g", refined.Makespan()), f("%.4f", refined.Makespan()/mean)})
	t.Notes = append(t.Notes,
		"expected: refinement equal or better than LPT, largest wins on constrained graphs")
	return t
}

// AblationChunkSize (A6) sweeps the dynamic model's counter chunk size:
// the trade between counter traffic and tail imbalance.
func (s *Suite) AblationChunkSize() *Table {
	s.prepare()
	p := s.maxRanks()
	t := &Table{
		ID:     "A6",
		Title:  f("dynamic-counter chunk-size sweep at P=%d", p),
		Header: []string{"chunk", "makespan(s)", "counter-ops", "counter-wait(s)", "imbalance"},
	}
	for _, chunk := range []int{1, 2, 4, 8, 16, 32} {
		res := core.RunScheduler(core.CounterSched{Chunk: chunk}, s.work, s.machine(p))
		t.Rows = append(t.Rows, []string{
			f("%d", chunk), f("%.4g", res.Makespan),
			f("%d", res.CounterOps), f("%.3g", res.CounterWait),
			f("%.3f", res.LoadImbalance()),
		})
	}
	t.Notes = append(t.Notes,
		"expected: ops fall ~1/chunk; beyond the sweet spot tail imbalance raises the makespan again")
	return t
}
