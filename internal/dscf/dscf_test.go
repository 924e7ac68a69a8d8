package dscf

import (
	"math"
	"testing"

	"execmodels/internal/cluster"
	"execmodels/internal/core"
)

func testWorkload() *core.Workload {
	return core.Synthetic(core.SyntheticOptions{
		NumTasks: 512, Dist: "triangular", Seed: 1,
	})
}

func TestRunBasic(t *testing.T) {
	w := testWorkload()
	m := cluster.New(cluster.Config{Ranks: 16, Seed: 1})
	res, err := Run(Config{NBF: 100, Iterations: 5, ReplicatedDiag: true},
		core.Model{Sched: "stealing", Opt: core.SchedOptions{Seed: 1}}, w, m)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerIter) != 5 {
		t.Fatalf("%d iterations recorded", len(res.PerIter))
	}
	if res.TotalTime <= 0 || res.FockFraction <= 0 || res.FockFraction > 1 {
		t.Fatalf("totals %v fock %v", res.TotalTime, res.FockFraction)
	}
	b := res.Breakdown()
	if math.Abs(b.Total()-res.TotalTime) > 1e-9*res.TotalTime {
		t.Fatalf("breakdown %v != total %v", b.Total(), res.TotalTime)
	}
	for _, pt := range res.PerIter {
		if pt.Fock <= 0 || pt.Reduce <= 0 || pt.Diag <= 0 || pt.Broadcast <= 0 {
			t.Fatalf("zero phase in %+v", pt)
		}
	}
}

func TestRunBadConfig(t *testing.T) {
	w := testWorkload()
	m := cluster.New(cluster.Config{Ranks: 4})
	if _, err := Run(Config{}, core.Model{Sched: "static"}, w, m); err == nil {
		t.Fatal("expected error for NBF = 0")
	}
}

// Amdahl: with a replicated diagonalization, the Fock fraction must fall
// as ranks grow — the serial phase eats the speedup.
func TestAmdahlFockFractionFalls(t *testing.T) {
	w := testWorkload()
	cfg := Config{NBF: 200, Iterations: 3, ReplicatedDiag: true}
	frac := make([]float64, 0, 3)
	for _, p := range []int{4, 16, 64} {
		m := cluster.New(cluster.Config{Ranks: p, Seed: 1})
		res, err := Run(cfg, core.Model{Sched: "stealing", Opt: core.SchedOptions{Seed: 1}}, w, m)
		if err != nil {
			t.Fatal(err)
		}
		frac = append(frac, res.FockFraction)
	}
	if !(frac[0] > frac[1] && frac[1] > frac[2]) {
		t.Fatalf("fock fraction not falling: %v", frac)
	}
}

// A parallel diagonalization must beat the replicated one at scale.
func TestParallelDiagWins(t *testing.T) {
	w := testWorkload()
	m := cluster.New(cluster.Config{Ranks: 64, Seed: 1})
	repl, err := Run(Config{NBF: 300, Iterations: 3, ReplicatedDiag: true},
		core.Model{Sched: "cyclic"}, w, m)
	if err != nil {
		t.Fatal(err)
	}
	m2 := cluster.New(cluster.Config{Ranks: 64, Seed: 1})
	par, err := Run(Config{NBF: 300, Iterations: 3},
		core.Model{Sched: "cyclic"}, w, m2)
	if err != nil {
		t.Fatal(err)
	}
	if par.Breakdown().Diag >= repl.Breakdown().Diag {
		t.Fatalf("parallel diag %v not below replicated %v",
			par.Breakdown().Diag, repl.Breakdown().Diag)
	}
}

// Persistence models must show decreasing Fock times across iterations
// inside the application context.
func TestPersistenceInsideApplication(t *testing.T) {
	w := testWorkload()
	m := cluster.New(cluster.Config{Ranks: 16, Seed: 1})
	res, err := Run(Config{NBF: 100, Iterations: 4, ReplicatedDiag: true},
		core.Model{Sched: "persistence"}, w, m)
	if err != nil {
		t.Fatal(err)
	}
	if res.PerIter[3].Fock >= res.PerIter[0].Fock {
		t.Fatalf("persistence fock did not improve: %v vs %v",
			res.PerIter[3].Fock, res.PerIter[0].Fock)
	}
}

// The execution model must matter inside the application: stealing beats
// static block on total time while sharing identical non-Fock phases.
func TestModelChoiceMatters(t *testing.T) {
	w := testWorkload()
	cfg := Config{NBF: 80, Iterations: 3, ReplicatedDiag: true}
	m1 := cluster.New(cluster.Config{Ranks: 16, Seed: 1})
	static, _ := Run(cfg, core.Model{Sched: "static"}, w, m1)
	m2 := cluster.New(cluster.Config{Ranks: 16, Seed: 1})
	steal, _ := Run(cfg, core.Model{Sched: "stealing", Opt: core.SchedOptions{Seed: 1}}, w, m2)
	if steal.TotalTime >= static.TotalTime {
		t.Fatalf("stealing %v not below static %v", steal.TotalTime, static.TotalTime)
	}
	sb, stb := static.Breakdown(), steal.Breakdown()
	if math.Abs(sb.Diag-stb.Diag) > 1e-12 || math.Abs(sb.Reduce-stb.Reduce) > 1e-12 {
		t.Fatal("non-Fock phases should be identical across models")
	}
}
