package execmodels

// One sub-benchmark of BenchmarkExperiments per registered table and
// figure (see DESIGN.md's per-experiment index), plus kernel
// micro-benchmarks; the chemistry kernel's before/after pairs, whose
// "before" sides are test oracles, are in internal/chem/bench_test.go.
// Run everything with:
//
//	go test -bench=. -benchmem
//
// Each experiment prints its table to stdout once, so `-bench` runs
// double as experiment reports.

import (
	"io"
	"os"
	"testing"

	"execmodels/internal/bench"
	"execmodels/internal/chem"
	"execmodels/internal/cluster"
	"execmodels/internal/core"
	"execmodels/internal/deque"
	"execmodels/internal/hypergraph"
	"execmodels/internal/linalg"
	"execmodels/internal/semimatching"
)

var suite = bench.NewSuite("small", 1)

// benchOut is where experiment tables are printed during -bench runs.
var benchOut io.Writer = os.Stdout

// BenchmarkExperiments runs every registered experiment as a
// sub-benchmark named by its ID (`-bench 'Experiments/F2'`) and prints
// its table on the final iteration.
func BenchmarkExperiments(b *testing.B) {
	for _, id := range bench.Experiments() {
		b.Run(id, func(b *testing.B) {
			var tbl *bench.Table
			for i := 0; i < b.N; i++ {
				var err error
				tbl, err = suite.Run(id)
				if err != nil {
					b.Fatal(err)
				}
			}
			tbl.Fprint(benchOut)
		})
	}
}

// --- kernel micro-benchmarks ---

func waterBasis(b *testing.B, n int, name string) (*chem.Molecule, *chem.BasisSet) {
	b.Helper()
	mol := chem.WaterCluster(n, 1)
	bs, err := chem.NewBasis(name, mol)
	if err != nil {
		b.Fatal(err)
	}
	return mol, bs
}

func BenchmarkBoys(b *testing.B) {
	out := make([]float64, 9)
	for i := 0; i < b.N; i++ {
		chem.Boys(8, float64(i%50)+0.5, out)
	}
}

func BenchmarkSchwarzBounds(b *testing.B) {
	_, bs := waterBasis(b, 2, "sto-3g")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		chem.SchwarzBounds(bs)
	}
}

func BenchmarkSCFWaterSTO3G(b *testing.B) {
	mol, bs := waterBasis(b, 1, "sto-3g")
	for i := 0; i < b.N; i++ {
		if _, err := chem.RunSCF(mol, bs, chem.SCFOptions{}, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEigenSym(b *testing.B) {
	m := linalg.NewMatrix(40, 40)
	for i := 0; i < 40; i++ {
		for j := 0; j <= i; j++ {
			v := 1 / float64(i+j+1)
			m.Set(i, j, v)
			m.Set(j, i, v)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		linalg.EigenSym(m)
	}
}

func BenchmarkDequeOwnerOps(b *testing.B) {
	var d deque.Deque
	for i := 0; i < b.N; i++ {
		d.Push(i)
		d.Pop()
	}
}

func BenchmarkDequeStealHalf(b *testing.B) {
	var d deque.Deque
	ids := make([]int, 64)
	for i := 0; i < b.N; i++ {
		d.PushBatch(ids)
		for d.StealHalf() != nil {
		}
	}
}

func BenchmarkWeightedSemiMatch(b *testing.B) {
	w := core.Synthetic(core.SyntheticOptions{NumTasks: 2000, Dist: "lognormal", Seed: 1})
	g := core.TaskGraph(w, 32, 1)
	est := make([]float64, len(w.Tasks))
	for i, t := range w.Tasks {
		est[i] = t.EstCost
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		semimatching.WeightedSemiMatch(g, est)
	}
}

func BenchmarkHypergraphPartition(b *testing.B) {
	w := core.Synthetic(core.SyntheticOptions{NumTasks: 2000, Dist: "lognormal", Seed: 1})
	h := core.BuildHypergraph(w)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hypergraph.Partition(h, 32, hypergraph.Options{Seed: 1})
	}
}

func BenchmarkSimWorkStealing(b *testing.B) {
	w := core.Synthetic(core.SyntheticOptions{NumTasks: 4096, Dist: "triangular", Seed: 1})
	m := cluster.New(cluster.Config{Ranks: 64, Seed: 1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.RunScheduler(core.StealingSched{Seed: int64(i)}, w, m)
	}
}

func BenchmarkSimDynamicCounter(b *testing.B) {
	w := core.Synthetic(core.SyntheticOptions{NumTasks: 4096, Dist: "triangular", Seed: 1})
	m := cluster.New(cluster.Config{Ranks: 64, Seed: 1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.RunScheduler(core.CounterSched{Chunk: 1}, w, m)
	}
}

func BenchmarkWallStealingFock(b *testing.B) {
	mol, bs := waterBasis(b, 2, "sto-3g")
	w := chem.BuildFockWorkload(bs, 1e-9, 4)
	h := chem.CoreHamiltonian(bs, mol)
	// A converged density: the executor skips quartets by the density
	// they contract, so the identity would time its skip rule.
	res, err := chem.RunSCF(mol, bs, chem.SCFOptions{UseDIIS: true}, nil)
	if err != nil || !res.Converged {
		b.Fatalf("RunSCF: converged %v, %v", res != nil && res.Converged, err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ws, err := core.NewWallScheduler("stealing", 4, core.WallOptions{Seed: int64(i)})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := ws.Build(w, h, res.D); err != nil {
			b.Fatal(err)
		}
	}
}
