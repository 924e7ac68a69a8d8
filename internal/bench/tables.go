package bench

import (
	"time"

	"execmodels/internal/core"
	"execmodels/internal/hypergraph"
	"execmodels/internal/semimatching"
)

// Table1 reproduces the headline result: work stealing versus the
// traditional static (block) schedule at full scale. The paper reports a
// 50 percent performance improvement.
func (s *Suite) Table1() *Table {
	s.prepare()
	p := s.maxRanks()
	m := s.machine(p)
	static := core.RunScheduler(core.StaticBlockSched{}, s.work, m)
	steal := core.RunScheduler(core.StealingSched{Seed: s.Seed}, s.work, m)
	improvement := (static.Makespan - steal.Makespan) / static.Makespan * 100
	speedup := static.Makespan / steal.Makespan
	t := &Table{
		ID:     "T1",
		Title:  f("headline: work stealing vs static block at P=%d", p),
		Header: []string{"model", "makespan(s)", "imbalance", "vs-static"},
		Rows: [][]string{
			{"static-block", f("%.4g", static.Makespan), f("%.3f", static.LoadImbalance()), "1.00x"},
			{"work-stealing", f("%.4g", steal.Makespan), f("%.3f", steal.LoadImbalance()), f("%.2fx", speedup)},
		},
	}
	t.Notes = append(t.Notes,
		f("improvement = %.1f%% — paper reports ~50%%", improvement))
	return t
}

// Table2 reproduces the per-model load-imbalance comparison at scale.
func (s *Suite) Table2() *Table {
	s.prepare()
	p := s.maxRanks()
	ideal := s.machine(p).IdealTime(s.work.TotalCost())
	t := &Table{
		ID:     "T2",
		Title:  f("load imbalance and efficiency per execution model at P=%d", p),
		Header: []string{"model", "makespan(s)", "imbalance(max/mean)", "efficiency", "idle(s)"},
	}
	for _, model := range core.AllModels(s.Seed) {
		res := model.Run(s.work, s.machine(p))
		t.Rows = append(t.Rows, []string{
			model.Name(),
			f("%.4g", res.Makespan),
			f("%.3f", res.LoadImbalance()),
			f("%.2f", res.Efficiency(ideal)),
			f("%.4g", res.TotalIdle()),
		})
	}
	t.Notes = append(t.Notes,
		"expected order: static-block worst; dynamic/stealing/semi-matching/hypergraph near 1.0 imbalance")
	return t
}

// Table3 reproduces the schedule-quality comparison between the novel
// semi-matching balancer and the hypergraph-partitioning baseline (plus
// static block for reference). The paper claims comparable performance.
func (s *Suite) Table3() *Table {
	s.prepare()
	p := s.maxRanks()
	t := &Table{
		ID:     "T3",
		Title:  f("semi-matching vs hypergraph partitioning at P=%d", p),
		Header: []string{"model", "makespan(s)", "imbalance", "comm(s,total)", "schedule-cost(s,real)"},
	}
	for _, model := range []core.Scheduler{
		core.StaticBlockSched{},
		core.SemiMatchingSched{Seed: s.Seed},
		core.HypergraphSched{Seed: s.Seed},
	} {
		res := core.RunScheduler(model, s.work, s.machine(p))
		var comm float64
		for _, c := range res.CommTime {
			comm += c
		}
		t.Rows = append(t.Rows, []string{
			model.Name(),
			f("%.4g", res.Makespan),
			f("%.3f", res.LoadImbalance()),
			f("%.4g", comm),
			f("%.3g", res.ScheduleCost),
		})
	}
	t.Notes = append(t.Notes,
		"expected shape: semi-matching within a few % of hypergraph makespan at a fraction of the schedule cost")
	return t
}

// Table4 reproduces the partitioner-cost scaling study: real wall-clock
// cost of computing the assignment, semi-matching versus multilevel
// hypergraph partitioning, across workload sizes. This is the paper's
// "computationally expensive" claim quantified.
func (s *Suite) Table4() *Table {
	sizes := []int{1000, 4000, 16000}
	if s.Scale == "paper" {
		sizes = append(sizes, 64000)
	}
	p := s.maxRanks()
	t := &Table{
		ID:     "T4",
		Title:  f("assignment-computation cost vs task count (P=%d parts)", p),
		Header: []string{"tasks", "semi-matching(s)", "hypergraph(s)", "ratio", "sm-makespan", "hg-makespan"},
	}
	for _, n := range sizes {
		w := core.Synthetic(core.SyntheticOptions{
			NumTasks: n, Dist: "lognormal", Sigma: 1.0, Seed: s.Seed,
		})
		est := make([]float64, len(w.Tasks))
		for i, task := range w.Tasks {
			est[i] = task.EstCost
		}

		smStart := time.Now()
		b := core.TaskGraph(w, p, s.Seed)
		smAssign := semimatching.WeightedSemiMatch(b, est)
		smCost := time.Since(smStart).Seconds()

		hgStart := time.Now()
		h := core.BuildHypergraph(w)
		hgRes := hypergraph.Partition(h, p, hypergraph.Options{Seed: s.Seed})
		hgCost := time.Since(hgStart).Seconds()

		m := s.machine(p)
		smMk := runWithAssignment(w, m, smAssign.Of)
		hgMk := runWithAssignment(w, m, hgRes.Part)

		ratio := 0.0
		if smCost > 0 {
			ratio = hgCost / smCost
		}
		t.Rows = append(t.Rows, []string{
			f("%d", n), f("%.4g", smCost), f("%.4g", hgCost), f("%.1fx", ratio),
			f("%.4g", smMk), f("%.4g", hgMk),
		})
	}
	t.Notes = append(t.Notes,
		"expected shape: hypergraph partitioning one to two orders of magnitude more expensive, "+
			"with schedule quality comparable to semi-matching")
	return t
}

// runWithAssignment measures the makespan of a fixed assignment (compute
// only, same cost model as the executors).
func runWithAssignment(w *core.Workload, m interface {
	TaskTime(r int, cost float64) float64
	IdealTime(total float64) float64
}, assign []int) float64 {
	// Busy time only; comm is identical across the two balancers here and
	// omitting it keeps this helper independent of the executor internals.
	busy := map[int]float64{}
	for i, t := range w.Tasks {
		busy[assign[i]] += m.TaskTime(assign[i], t.Cost)
	}
	var mk float64
	for _, b := range busy {
		if b > mk {
			mk = b
		}
	}
	return mk
}

// Table5 reproduces the overhead-accounting breakdown per model at scale:
// where the non-compute time goes.
func (s *Suite) Table5() *Table {
	s.prepare()
	p := s.maxRanks()
	t := &Table{
		ID:     "T5",
		Title:  f("runtime overhead accounting at P=%d", p),
		Header: []string{"model", "makespan(s)", "comm(s)", "counter-wait(s)", "steal-time(s)", "sched-cost(s,real)", "idle(s)"},
	}
	for _, model := range core.AllModels(s.Seed) {
		res := model.Run(s.work, s.machine(p))
		var comm float64
		for _, c := range res.CommTime {
			comm += c
		}
		t.Rows = append(t.Rows, []string{
			model.Name(),
			f("%.4g", res.Makespan),
			f("%.4g", comm),
			f("%.4g", res.CounterWait),
			f("%.4g", res.StealTime),
			f("%.3g", res.ScheduleCost),
			f("%.4g", res.TotalIdle()),
		})
	}
	t.Notes = append(t.Notes,
		"expected shape: idle time dominates static models; counter wait is the dynamic model's tax; "+
			"stealing pays a small steal-time tax; balancers pay real schedule-computation cost")
	return t
}
