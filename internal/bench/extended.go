package bench

import (
	"execmodels/internal/chem"
	"execmodels/internal/cluster"
	"execmodels/internal/core"
)

// Table6 reproduces the end-to-end application view: total time for a
// full SCF's sequence of Fock builds (one per iteration over the same
// task set) under each execution model, including the iterative models
// that exploit persistence. The energy is model-independent — computed
// once with the serial reference and recorded in the notes as the
// correctness anchor.
func (s *Suite) Table6() *Table {
	s.prepare()
	p := s.maxRanks()
	const iters = 10
	t := &Table{
		ID:     "T6",
		Title:  f("end-to-end: %d Fock-build iterations at P=%d", iters, p),
		Header: []string{"model", "total(s)", "first-iter(s)", "last-iter(s)"},
	}
	models := append(core.AllModels(s.Seed),
		core.Model{Sched: "self-sched-guided"},
		core.Model{Sched: "persistence-sm", Opt: core.SchedOptions{Seed: s.Seed}},
	)
	for _, model := range models {
		// Non-feedback models repeat the same schedule each iteration on
		// one machine, so the noise model stays honest.
		model.Iterations = iters
		_, hist := model.RunWithHistory(s.work, s.machine(p))
		var total float64
		for _, mk := range hist {
			total += mk
		}
		t.Rows = append(t.Rows, []string{
			model.Name(), f("%.4g", total), f("%.4g", hist[0]), f("%.4g", hist[len(hist)-1]),
		})
	}
	// Correctness anchor: the tiny reference SCF.
	mol := chem.Water()
	bs, err := chem.NewBasis("sto-3g", mol)
	if err == nil {
		if res, err := chem.RunSCF(mol, bs, chem.SCFOptions{UseDIIS: true}, nil); err == nil {
			t.Notes = append(t.Notes,
				f("energies are execution-model independent: E(H2O/STO-3G) = %.6f hartree from the serial reference", res.Energy))
		}
	}
	t.Notes = append(t.Notes,
		"expected shape: persistence variants match static on iteration 1, then converge to near-ideal; "+
			"dynamic/stealing pay their runtime tax every iteration")
	return t
}

// Figure6 reproduces the dynamic-variability experiment with DVFS-style
// throttling *episodes* (as opposed to F4's static per-rank speeds):
// slowdown as the per-window throttle probability grows.
func (s *Suite) Figure6() *Table {
	s.prepare()
	p := s.maxRanks()
	probs := []float64{0, 0.1, 0.2, 0.3, 0.5}
	models := []core.Scheduler{
		core.StaticCyclicSched{},
		core.CounterSched{Policy: core.GuidedChunk{}},
		core.StealingSched{Seed: s.Seed},
	}
	t := &Table{
		ID:     "F6",
		Title:  f("slowdown vs DVFS throttle-episode probability at P=%d (10ms windows, 0.5x speed)", p),
		Header: []string{"model"},
	}
	for _, pr := range probs {
		t.Header = append(t.Header, f("p=%.1f", pr))
	}
	for _, model := range models {
		var base float64
		row := []string{model.Name()}
		for i, pr := range probs {
			m := cluster.New(cluster.Config{Ranks: p, ThrottleProb: pr, Seed: s.Seed})
			res := core.RunScheduler(model, s.work, m)
			if i == 0 {
				base = res.Makespan
			}
			row = append(row, f("%.3f", res.Makespan/base))
		}
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes,
		"expected shape: all models slow with lost cycles (~1/(1-p/2)); episodes hurt the static "+
			"schedule more because its critical rank cannot shed work mid-episode")
	return t
}

// Figure8 reproduces the locality-structure experiment: the same
// execution models on a compact 3-D water cluster (every shell near every
// other) versus a 1-D alkane chain (banded sparsity). Locality-aware
// balancers profit where structure exists; compact clusters leave little
// to exploit.
func (s *Suite) Figure8() *Table {
	carbons := 8
	if s.Scale == "paper" {
		carbons = 20
	}
	t := &Table{
		ID:     "F8",
		Title:  f("workload structure: compact cluster vs C%d alkane chain", carbons),
		Header: []string{"workload", "tasks", "model", "makespan(s)", "comm(s,total)"},
	}
	s.prepare()
	alk := chem.Alkane(carbons)
	abs_, err := chem.NewBasis("sto-3g", alk)
	if err != nil {
		panic(err)
	}
	aw := core.FromFock(chem.BuildFockWorkload(abs_, 1e-9, 4))

	p := s.maxRanks()
	for _, wl := range []struct {
		name string
		w    *core.Workload
	}{
		{"water-cluster", s.work},
		{"alkane-chain", aw},
	} {
		for _, model := range []core.Scheduler{
			core.StaticCyclicSched{},
			core.SemiMatchingSched{Seed: s.Seed},
			core.HypergraphSched{Seed: s.Seed},
		} {
			res := core.RunScheduler(model, wl.w, s.machine(p))
			var comm float64
			for _, c := range res.CommTime {
				comm += c
			}
			t.Rows = append(t.Rows, []string{
				wl.name, f("%d", len(wl.w.Tasks)), model.Name(),
				f("%.4g", res.Makespan), f("%.4g", comm),
			})
		}
	}
	t.Notes = append(t.Notes,
		"expected shape: on the banded alkane the locality-aware balancers cut communication "+
			"hardest relative to cost-oblivious cyclic; screening also removes far more quartets")
	return t
}

// AblationSelfSched (A7) compares the chunk-policy family head to head:
// fixed-1, fixed-16, guided, factoring.
func (s *Suite) AblationSelfSched() *Table {
	s.prepare()
	p := s.maxRanks()
	t := &Table{
		ID:     "A7",
		Title:  f("self-scheduling chunk policies at P=%d", p),
		Header: []string{"policy", "makespan(s)", "counter-ops", "counter-wait(s)", "imbalance"},
	}
	for _, sched := range []core.CounterSched{
		{Chunk: 1},
		{Chunk: 16},
		{Policy: core.GuidedChunk{}},
		{Policy: core.FactoringChunk{}},
	} {
		res := core.RunScheduler(sched, s.work, s.machine(p))
		name := sched.Name()
		if sched.Policy == nil {
			name = f("fixed-%d", sched.Chunk)
		}
		t.Rows = append(t.Rows, []string{
			name, f("%.4g", res.Makespan),
			f("%d", res.CounterOps), f("%.3g", res.CounterWait),
			f("%.3f", res.LoadImbalance()),
		})
	}
	t.Notes = append(t.Notes,
		"expected: guided/factoring cut counter traffic by an order of magnitude at equal or better makespan")
	return t
}
