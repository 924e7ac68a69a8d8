package core

import (
	"math"
	"testing"

	"execmodels/internal/chem"
	"execmodels/internal/cluster"
)

// testMachine returns a small homogeneous machine with negligible
// overheads, where every model should approach the ideal time.
func testMachine(p int) *cluster.Machine {
	return cluster.New(cluster.Config{Ranks: p, Seed: 1})
}

func triangularWorkload(n int) *Workload {
	return Synthetic(SyntheticOptions{NumTasks: n, Dist: "triangular", Seed: 1})
}

// Every model must (a) run every task exactly once and (b) account busy
// time consistent with the task costs.
func TestAllModelsConservation(t *testing.T) {
	w := Synthetic(SyntheticOptions{NumTasks: 200, Dist: "lognormal", Seed: 3})
	m := testMachine(8)
	for _, model := range AllModels(7) {
		res := model.Run(w, m)
		var tasks int
		for _, c := range res.TasksRun {
			tasks += c
		}
		if tasks != len(w.Tasks) {
			t.Errorf("%s: ran %d tasks, want %d", model.Name(), tasks, len(w.Tasks))
		}
		var busy float64
		for _, b := range res.BusyTime {
			busy += b
		}
		// Total busy time = total cost / speed + per-task overheads
		// (no noise on this machine).
		want := w.TotalCost()/1e9 + float64(len(w.Tasks))*m.Cfg.TaskOverhead
		if math.Abs(busy-want) > 1e-9*want {
			t.Errorf("%s: busy %v, want %v", model.Name(), busy, want)
		}
		if res.Makespan <= 0 {
			t.Errorf("%s: non-positive makespan", model.Name())
		}
		for r, f := range res.FinishTime {
			if f > res.Makespan+1e-12 {
				t.Errorf("%s: rank %d finishes after makespan", model.Name(), r)
			}
		}
	}
}

// Makespan can never beat the ideal (perfect balance, zero overhead).
func TestMakespanAboveIdeal(t *testing.T) {
	w := triangularWorkload(300)
	for _, p := range []int{1, 4, 16} {
		m := testMachine(p)
		ideal := m.IdealTime(w.TotalCost())
		for _, model := range AllModels(5) {
			res := model.Run(w, m)
			if res.Makespan < ideal {
				t.Errorf("%s P=%d: makespan %v below ideal %v", model.Name(), p, res.Makespan, ideal)
			}
		}
	}
}

// On one rank every model degenerates to the serial time.
func TestSingleRankEquivalence(t *testing.T) {
	w := Synthetic(SyntheticOptions{NumTasks: 50, Dist: "lognormal", Seed: 2})
	m := testMachine(1)
	var first float64
	for i, model := range AllModels(1) {
		res := model.Run(w, m)
		if res.LoadImbalance() != 1 && res.LoadImbalance() != 0 {
			t.Errorf("%s: imbalance %v on 1 rank", model.Name(), res.LoadImbalance())
		}
		if i == 0 {
			first = res.BusyTime[0]
			continue
		}
		if math.Abs(res.BusyTime[0]-first) > 1e-9*first {
			t.Errorf("%s: serial busy %v != %v", model.Name(), res.BusyTime[0], first)
		}
	}
}

// The headline result: on the triangular cost profile, work stealing must
// beat static block by a wide margin (the paper reports ~50%).
func TestStealingBeatsStaticBlock(t *testing.T) {
	w := triangularWorkload(2048)
	m := testMachine(32)
	static := RunScheduler(StaticBlockSched{}, w, m)
	steal := RunScheduler(StealingSched{Seed: 1}, w, m)
	if steal.Makespan > 0.75*static.Makespan {
		t.Errorf("stealing %v not clearly better than static %v", steal.Makespan, static.Makespan)
	}
	if steal.Steals == 0 {
		t.Error("no steals recorded")
	}
}

// Static block on a triangular profile approaches 2× the ideal (the last
// block holds the heaviest tasks); cyclic fixes that.
func TestStaticBlockTriangularPenalty(t *testing.T) {
	w := triangularWorkload(4096)
	m := testMachine(16)
	ideal := m.IdealTime(w.TotalCost())
	block := RunScheduler(StaticBlockSched{}, w, m)
	cyclic := RunScheduler(StaticCyclicSched{}, w, m)
	if ratio := block.Makespan / ideal; ratio < 1.7 {
		t.Errorf("static block ratio %v, expected ~2 on triangular costs", ratio)
	}
	if ratio := cyclic.Makespan / ideal; ratio > 1.2 {
		t.Errorf("static cyclic ratio %v, expected near 1", ratio)
	}
}

// On a uniform workload with a homogeneous quiet machine, all models are
// within a few percent of each other — irregularity is what separates
// them (ablation for DESIGN.md decision 2).
func TestUniformCostsEraseDifferences(t *testing.T) {
	w := Synthetic(SyntheticOptions{NumTasks: 1024, Dist: "uniform", Seed: 4})
	m := testMachine(16)
	var lo, hi float64 = math.Inf(1), 0
	for _, model := range AllModels(3) {
		res := model.Run(w, m)
		lo = math.Min(lo, res.Makespan)
		hi = math.Max(hi, res.Makespan)
	}
	if hi/lo > 1.25 {
		t.Errorf("uniform workload spread %v, expected tight grouping", hi/lo)
	}
}

// The centralized counter must show contention growth with rank count.
func TestDynamicCounterContentionGrows(t *testing.T) {
	w := Synthetic(SyntheticOptions{NumTasks: 4096, Dist: "lognormal", MeanCost: 2e4, Seed: 5})
	small := RunScheduler(CounterSched{}, w, testMachine(4))
	big := RunScheduler(CounterSched{}, w, testMachine(128))
	if big.CounterWait <= small.CounterWait {
		t.Errorf("counter wait did not grow: P=4 %v vs P=128 %v", small.CounterWait, big.CounterWait)
	}
	if small.CounterOps != big.CounterOps-124 { // one final failed fetch per extra rank
		// Each rank performs one last fetch that returns >= n tasks.
		t.Logf("ops small=%d big=%d (informational)", small.CounterOps, big.CounterOps)
	}
}

// Chunking reduces counter ops roughly by the chunk factor.
func TestDynamicCounterChunking(t *testing.T) {
	w := Synthetic(SyntheticOptions{NumTasks: 1000, Dist: "uniform", Seed: 6})
	m := testMachine(8)
	one := RunScheduler(CounterSched{Chunk: 1}, w, m)
	ten := RunScheduler(CounterSched{Chunk: 10}, w, m)
	if ten.CounterOps >= one.CounterOps/5 {
		t.Errorf("chunk=10 used %d ops vs chunk=1 %d", ten.CounterOps, one.CounterOps)
	}
}

// Persistence must improve across iterations on a noisy-estimate-free
// machine: iteration 2+ uses measured costs and beats iteration 1's
// static block schedule.
func TestPersistenceImproves(t *testing.T) {
	w := triangularWorkload(1024)
	m := testMachine(16)
	_, hist := Model{Sched: "persistence", Iterations: 3}.RunWithHistory(w, m)
	if len(hist) != 3 {
		t.Fatalf("history %v", hist)
	}
	if hist[1] >= hist[0] || hist[2] > hist[1]+1e-12 {
		t.Errorf("persistence did not improve: %v", hist)
	}
	ideal := m.IdealTime(w.TotalCost())
	if hist[2] > 1.15*ideal {
		t.Errorf("persistence final %v far from ideal %v", hist[2], ideal)
	}
}

// Semi-matching and hypergraph must produce similar quality (T3), with
// semi-matching dramatically cheaper to compute (T4).
func TestSemiMatchingVsHypergraph(t *testing.T) {
	fw := fockWorkload(t, 3)
	w := FromFock(fw)
	m := testMachine(16)
	sm := RunScheduler(SemiMatchingSched{Seed: 2}, w, m)
	hg := RunScheduler(HypergraphSched{Seed: 2}, w, m)
	if sm.Makespan > 1.25*hg.Makespan {
		t.Errorf("semi-matching %v much worse than hypergraph %v", sm.Makespan, hg.Makespan)
	}
	if sm.ScheduleCost <= 0 || hg.ScheduleCost <= 0 {
		t.Fatalf("schedule costs not recorded: %v %v", sm.ScheduleCost, hg.ScheduleCost)
	}
	if sm.ScheduleCost > hg.ScheduleCost {
		t.Errorf("semi-matching cost %v not cheaper than hypergraph %v",
			sm.ScheduleCost, hg.ScheduleCost)
	}
}

// Under injected per-rank performance variability (sustained throttling,
// as from power capping) the adaptive models must degrade far less than
// the static ones — the paper's closing observation about "emerging
// dynamic platforms with energy-induced performance variability".
//
// Note per-*task* iid noise (NoiseSigma) is deliberately not the axis
// here: every rank's sum over many iid task noises concentrates, so all
// models absorb it equally; only *rank-level* speed variation separates
// static from adaptive scheduling.
// The triangular (Fock-like) distribution keeps max/mean ≈ 2 so the
// single-task critical-path bound stays small; a heavy-tailed lognormal
// would let one monster task dominate the tail, which no scheduler can
// fix.
func TestVariabilityRobustness(t *testing.T) {
	w := Synthetic(SyntheticOptions{NumTasks: 2048, Dist: "triangular", Seed: 8})
	quiet := cluster.New(cluster.Config{Ranks: 16, Seed: 2})
	vary := cluster.New(cluster.Config{Ranks: 16, Heterogeneity: 0.4, Seed: 2})

	staticQuiet := RunScheduler(StaticCyclicSched{}, w, quiet)
	staticVary := RunScheduler(StaticCyclicSched{}, w, vary)
	stealQuiet := RunScheduler(StealingSched{Seed: 4}, w, quiet)
	stealVary := RunScheduler(StealingSched{Seed: 4}, w, vary)

	staticSlow := staticVary.Makespan / staticQuiet.Makespan
	stealSlow := stealVary.Makespan / stealQuiet.Makespan
	if stealSlow >= 0.9*staticSlow {
		t.Errorf("stealing slowdown %v not clearly better than static %v", stealSlow, staticSlow)
	}
}

func TestModelRegistry(t *testing.T) {
	want := []string{"static-block", "static-cyclic", "dynamic-counter", "work-stealing",
		"persistence", "semi-matching", "hypergraph"}
	models := AllModels(1)
	if len(models) != len(want) {
		t.Fatalf("expected %d canonical models, got %v", len(want), models)
	}
	for i, m := range models {
		if m.Name() != want[i] {
			t.Errorf("AllModels[%d] reports as %q, want %q", i, m.Name(), want[i])
		}
	}
	// Every reporting name is itself a SchedulerByName alias, so a name
	// read off a table resolves back to the same policy.
	for _, n := range append(want, "work-stealing-one", "work-stealing-maxvictim") {
		if got := (Model{Sched: n}).Name(); got != n {
			t.Errorf("Model{Sched: %q} reports as %q", n, got)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("expected a panic for an unknown scheduler name")
		}
	}()
	Model{Sched: "bogus"}.Name()
}

// fockWorkload builds a small real chemistry workload for integration
// tests.
func fockWorkload(t testing.TB, waters int) *chem.FockWorkload {
	t.Helper()
	mol := chem.WaterCluster(waters, 11)
	bs, err := chem.NewBasis("sto-3g", mol)
	if err != nil {
		t.Fatal(err)
	}
	return chem.BuildFockWorkload(bs, 1e-9, 4)
}

func TestFromFockWorkload(t *testing.T) {
	fw := fockWorkload(t, 2)
	w := FromFock(fw)
	if len(w.Tasks) != len(fw.Tasks) {
		t.Fatalf("%d tasks vs %d", len(w.Tasks), len(fw.Tasks))
	}
	if w.NumBlocks != len(fw.Basis.Shells) {
		t.Fatalf("NumBlocks = %d", w.NumBlocks)
	}
	for i, task := range w.Tasks {
		if task.Cost != fw.Tasks[i].EstFlops {
			t.Fatalf("task %d cost mismatch", i)
		}
		if len(task.Blocks) == 0 {
			t.Fatalf("task %d has no blocks", i)
		}
		for _, b := range task.Blocks {
			if b < 0 || b >= w.NumBlocks {
				t.Fatalf("task %d block %d out of range", i, b)
			}
		}
	}
	if im := costImbalance(w); im < 1.2 {
		t.Errorf("Fock workload suspiciously regular: %v", im)
	}
}

// costImbalance returns max/mean task cost, the raw irregularity of a
// workload before any scheduling.
func costImbalance(w *Workload) float64 {
	var mx float64
	for _, t := range w.Tasks {
		mx = math.Max(mx, t.Cost)
	}
	return mx / (w.TotalCost() / float64(len(w.Tasks)))
}

func TestSyntheticDistributions(t *testing.T) {
	for _, dist := range []string{"uniform", "lognormal", "bimodal", "triangular"} {
		w := Synthetic(SyntheticOptions{NumTasks: 500, Dist: dist, Seed: 1})
		if len(w.Tasks) != 500 {
			t.Fatalf("%s: %d tasks", dist, len(w.Tasks))
		}
		mean := w.TotalCost() / 500
		if mean <= 0 {
			t.Fatalf("%s: mean %v", dist, mean)
		}
		// All synthetic distributions target MeanCost ≈ 1e6.
		if mean < 2e5 || mean > 5e6 {
			t.Errorf("%s: mean cost %v implausible", dist, mean)
		}
	}
	if costImbalance(Synthetic(SyntheticOptions{NumTasks: 10, Dist: "uniform"})) != 1 {
		t.Error("uniform should have imbalance exactly 1")
	}
}

func TestSyntheticUnknownDistPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Synthetic(SyntheticOptions{NumTasks: 3, Dist: "cauchy"})
}

func TestSyntheticEstNoise(t *testing.T) {
	w := Synthetic(SyntheticOptions{NumTasks: 100, Dist: "lognormal", EstNoise: 0.3, Seed: 9})
	var differs bool
	for _, task := range w.Tasks {
		if math.Abs(task.EstCost-task.Cost) > 1e-9 {
			differs = true
		}
		if math.Abs(task.EstCost-task.Cost) > 0.3*task.Cost+1e-9 {
			t.Fatalf("estimate error beyond bound: %v vs %v", task.EstCost, task.Cost)
		}
	}
	if !differs {
		t.Fatal("EstNoise had no effect")
	}
}

func TestStealPolicyVariants(t *testing.T) {
	w := triangularWorkload(512)
	m := testMachine(16)
	half := RunScheduler(StealingSched{Seed: 1}, w, m)
	one := RunScheduler(StealingSched{Steal: StealOne, Seed: 1}, w, m)
	oracle := RunScheduler(StealingSched{Victim: MostLoadedVictim, Seed: 1}, w, m)
	// Steal-one moves one task per round trip → many more steals.
	if one.Steals <= half.Steals {
		t.Errorf("steal-one %d steals vs steal-half %d", one.Steals, half.Steals)
	}
	// The oracle victim policy should waste fewer failed attempts.
	if oracle.FailedSteals > half.FailedSteals {
		t.Errorf("oracle failed %d > random %d", oracle.FailedSteals, half.FailedSteals)
	}
}

func TestResultString(t *testing.T) {
	w := triangularWorkload(64)
	m := testMachine(4)
	res := RunScheduler(CounterSched{}, w, m)
	if s := res.String(); len(s) == 0 {
		t.Fatal("empty String")
	}
}
