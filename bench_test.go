package execmodels

// One sub-benchmark of BenchmarkExperiments per registered table and
// figure (see DESIGN.md's per-experiment index), plus kernel
// micro-benchmarks. Run everything with:
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

func BenchmarkERIBlockSSSS(b *testing.B) {
	_, bs := waterBasis(b, 1, "sto-3g")
	var s *chem.Shell
	for i := range bs.Shells {
		if bs.Shells[i].L == 0 {
			s = &bs.Shells[i]
			break
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		chem.ERIBlock(s, s, s, s)
	}
}

func BenchmarkERIBlockPPPP(b *testing.B) {
	_, bs := waterBasis(b, 1, "sto-3g")
	var p *chem.Shell
	for i := range bs.Shells {
		if bs.Shells[i].L == 1 {
			p = &bs.Shells[i]
			break
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		chem.ERIBlock(p, p, p, p)
	}
}

// The pair-data cache vs recomputing Hermite tables per quartet.
func BenchmarkERIBlockPairCached(b *testing.B) {
	_, bs := waterBasis(b, 1, "sto-3g")
	var p *chem.Shell
	for i := range bs.Shells {
		if bs.Shells[i].L == 1 {
			p = &bs.Shells[i]
			break
		}
	}
	pd := chem.NewPairData(p, p)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		chem.ERIBlockPairInto(pd, pd, &chem.ERIScratch{})
	}
}

func BenchmarkSchwarzBounds(b *testing.B) {
	_, bs := waterBasis(b, 2, "sto-3g")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		chem.SchwarzBounds(bs)
	}
}

func BenchmarkFockBuildSerial(b *testing.B) {
	mol, bs := waterBasis(b, 1, "sto-3g")
	w := chem.BuildFockWorkload(bs, 1e-9, 4)
	h := chem.CoreHamiltonian(bs, mol)
	d := convergedDensity(b, mol, bs)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.BuildFock(h, d)
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

// convergedDensity returns the converged RHF density of mol, computed
// before any timer starts. The Fock executor skips quartets by the
// density they contract, so the identity density would time the
// executor's skip rule, not its kernel.
func convergedDensity(b *testing.B, mol *chem.Molecule, bs *chem.BasisSet) *linalg.Matrix {
	b.Helper()
	res, err := chem.RunSCF(mol, bs, chem.SCFOptions{UseDIIS: true}, nil)
	if err != nil || !res.Converged {
		b.Fatalf("RunSCF: converged %v, %v", res != nil && res.Converged, err)
	}
	return res.D
}

// Before/after pair for the worker scratch arena: the baseline path
// allocates its ERI block, Hermite tables and Boys workspace per
// quartet; the arena path reuses one scratch across the whole sweep.
// Both run at a converged density.
func BenchmarkExecuteTaskBaseline(b *testing.B) {
	mol, bs := waterBasis(b, 1, "sto-3g")
	w := chem.BuildFockWorkload(bs, 1e-9, 4)
	d := convergedDensity(b, mol, bs)
	j := linalg.NewMatrix(bs.NBF, bs.NBF)
	k := linalg.NewMatrix(bs.NBF, bs.NBF)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.ExecuteTaskBaseline(&w.Tasks[i%len(w.Tasks)], d, j, k)
	}
}

func BenchmarkExecuteTaskArena(b *testing.B) {
	mol, bs := waterBasis(b, 1, "sto-3g")
	w := chem.BuildFockWorkload(bs, 1e-9, 4)
	d := convergedDensity(b, mol, bs)
	j := linalg.NewMatrix(bs.NBF, bs.NBF)
	k := linalg.NewMatrix(bs.NBF, bs.NBF)
	scratch := w.NewScratch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.ExecuteTaskScratch(&w.Tasks[i%len(w.Tasks)], d, j, k, scratch)
	}
}

// The unrestricted digest beside BenchmarkExecuteTaskArena: (H2O)2/6-31G
// tasks through ExecuteTaskSpinScratch at a converged UHF density, so J
// contracts the total density and two exchange matrices the α and β
// densities.
func BenchmarkExecuteTaskSpinArena(b *testing.B) {
	mol, bs := waterBasis(b, 2, "6-31g")
	res, err := chem.RunUHF(mol, bs, chem.UHFOptions{UseDIIS: true})
	if err != nil || !res.Converged {
		b.Fatalf("RunUHF: converged %v, %v", res != nil && res.Converged, err)
	}
	w := res.Workload
	dTot := res.DA.Clone().AddScaled(1, res.DB)
	n := bs.NBF
	j, kA, kB := linalg.NewMatrix(n, n), linalg.NewMatrix(n, n), linalg.NewMatrix(n, n)
	scratch := w.NewScratch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.ExecuteTaskSpinScratch(&w.Tasks[i%len(w.Tasks)], dTot, res.DA, res.DB, j, kA, kB, scratch)
	}
}

func BenchmarkWallStealingFock(b *testing.B) {
	mol, bs := waterBasis(b, 2, "sto-3g")
	w := chem.BuildFockWorkload(bs, 1e-9, 4)
	h := chem.CoreHamiltonian(bs, mol)
	d := convergedDensity(b, mol, bs)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ws, err := core.NewWallScheduler("stealing", 4, core.WallOptions{Seed: int64(i)})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := ws.Build(w, h, d); err != nil {
			b.Fatal(err)
		}
	}
}
