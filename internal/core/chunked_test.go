package core

import (
	"math"
	"testing"
)

func TestChunkPolicies(t *testing.T) {
	if got := (FixedChunk(5)).NextChunk(100, 8); got != 5 {
		t.Fatalf("fixed = %d", got)
	}
	if got := (FixedChunk(0)).NextChunk(100, 8); got != 1 {
		t.Fatalf("fixed floor = %d", got)
	}
	if got := (GuidedChunk{}).NextChunk(100, 8); got != 13 {
		t.Fatalf("guided = %d, want ceil(100/8)=13", got)
	}
	if got := (GuidedChunk{}).NextChunk(0, 8); got != 1 {
		t.Fatalf("guided floor = %d", got)
	}
	if got := (FactoringChunk{}).NextChunk(100, 8); got != 7 {
		t.Fatalf("factoring = %d, want ceil(100/16)=7", got)
	}
}

func TestSelfSchedulingConservation(t *testing.T) {
	w := Synthetic(SyntheticOptions{NumTasks: 300, Dist: "lognormal", Seed: 2})
	m := testMachine(8)
	for _, sched := range []Scheduler{
		CounterSched{Policy: GuidedChunk{}},
		CounterSched{Policy: FactoringChunk{}},
	} {
		res := RunScheduler(sched, w, m)
		var tasks int
		for _, c := range res.TasksRun {
			tasks += c
		}
		if tasks != len(w.Tasks) {
			t.Errorf("%s: ran %d tasks", sched.Name(), tasks)
		}
		if res.Makespan < m.IdealTime(w.TotalCost()) {
			t.Errorf("%s: beat the ideal", sched.Name())
		}
	}
}

// Guided self-scheduling must use far fewer counter operations than
// chunk=1 dynamic while staying close in makespan.
func TestGuidedReducesCounterTraffic(t *testing.T) {
	w := Synthetic(SyntheticOptions{NumTasks: 4096, Dist: "triangular", Seed: 3})
	m := testMachine(16)
	one := RunScheduler(CounterSched{Chunk: 1}, w, m)
	guided := RunScheduler(CounterSched{Policy: GuidedChunk{}}, w, m)
	if guided.CounterOps >= one.CounterOps/10 {
		t.Errorf("guided ops %d not ≪ fixed-1 ops %d", guided.CounterOps, one.CounterOps)
	}
	if guided.Makespan > 1.3*one.Makespan {
		t.Errorf("guided makespan %v much worse than fixed-1 %v", guided.Makespan, one.Makespan)
	}
}

// Factoring claims more counter ops than guided (half-sized chunks) but
// never fewer than ~P·log(n/P) style growth; sanity-check the ordering.
func TestFactoringVsGuidedOps(t *testing.T) {
	w := Synthetic(SyntheticOptions{NumTasks: 4096, Dist: "uniform", Seed: 4})
	m := testMachine(16)
	guided := RunScheduler(CounterSched{Policy: GuidedChunk{}}, w, m)
	factoring := RunScheduler(CounterSched{Policy: FactoringChunk{}}, w, m)
	if factoring.CounterOps <= guided.CounterOps {
		t.Errorf("factoring ops %d <= guided %d", factoring.CounterOps, guided.CounterOps)
	}
}

// With heavy-tailed costs factoring's conservative chunks should bound
// the tail at least as well as guided: its makespan must not be much
// worse, and both beat a big fixed chunk.
func TestChunkedTailBehaviour(t *testing.T) {
	w := Synthetic(SyntheticOptions{NumTasks: 2048, Dist: "lognormal", Sigma: 1.0, Seed: 5})
	m := testMachine(16)
	guided := RunScheduler(CounterSched{Policy: GuidedChunk{}}, w, m)
	factoring := RunScheduler(CounterSched{Policy: FactoringChunk{}}, w, m)
	bigFixed := RunScheduler(CounterSched{Chunk: 128}, w, m)
	if factoring.Makespan > 1.2*guided.Makespan {
		t.Errorf("factoring %v ≫ guided %v", factoring.Makespan, guided.Makespan)
	}
	if guided.Makespan > bigFixed.Makespan {
		t.Errorf("guided %v worse than fixed-128 %v", guided.Makespan, bigFixed.Makespan)
	}
}

func TestPersistenceSMImproves(t *testing.T) {
	w := Synthetic(SyntheticOptions{NumTasks: 1024, Dist: "triangular", Seed: 6})
	m := testMachine(16)
	_, hist := Model{Sched: "persistence-sm", Opt: SchedOptions{Seed: 1}, Iterations: 3}.RunWithHistory(w, m)
	if len(hist) != 3 {
		t.Fatalf("history %v", hist)
	}
	if hist[2] >= hist[0] {
		t.Errorf("persistence-sm did not improve: %v", hist)
	}
	ideal := m.IdealTime(w.TotalCost())
	if hist[2] > 1.25*ideal {
		t.Errorf("final %v far from ideal %v", hist[2], ideal)
	}
}

// The SM variant must respect locality edges: with zero extra edges every
// task lands on an owner of one of its blocks.
func TestPersistenceSMRunsAllTasks(t *testing.T) {
	w := Synthetic(SyntheticOptions{NumTasks: 256, Dist: "bimodal", Seed: 7})
	m := testMachine(8)
	res := Model{Sched: "persistence-sm", Opt: SchedOptions{Seed: 2}, Iterations: 2}.Run(w, m)
	var tasks int
	for _, c := range res.TasksRun {
		tasks += c
	}
	if tasks != len(w.Tasks) {
		t.Fatalf("ran %d tasks", tasks)
	}
}

func TestNewVariantsResolvable(t *testing.T) {
	for _, name := range []string{"self-sched-guided", "self-sched-factoring", "persistence-sm"} {
		if got := (Model{Sched: name}).Name(); got != name {
			t.Fatalf("%s resolves to %s", name, got)
		}
	}
}

func TestSelfSchedulingSingleRank(t *testing.T) {
	w := Synthetic(SyntheticOptions{NumTasks: 64, Dist: "lognormal", Seed: 8})
	m := testMachine(1)
	res := RunScheduler(CounterSched{Policy: GuidedChunk{}}, w, m)
	serial := RunScheduler(StaticBlockSched{}, w, m)
	if math.Abs(res.BusyTime[0]-serial.BusyTime[0]) > 1e-9*serial.BusyTime[0] {
		t.Fatalf("busy %v vs serial %v", res.BusyTime[0], serial.BusyTime[0])
	}
}
