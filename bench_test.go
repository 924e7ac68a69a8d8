package execmodels

// One testing.B benchmark per reconstructed table and figure (see
// DESIGN.md's per-experiment index), plus kernel micro-benchmarks. Run
// everything with:
//
//	go test -bench=. -benchmem
//
// Table output goes to stderr once per benchmark via b.Logf-free printing
// so `-bench` runs double as experiment reports.

import (
	"fmt"
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

// runExperiment executes experiment id once per iteration and prints the
// table on the final iteration.
func runExperiment(b *testing.B, id string) {
	b.Helper()
	var tbl *bench.Table
	for i := 0; i < b.N; i++ {
		var err error
		tbl, err = suite.Run(id)
		if err != nil {
			b.Fatal(err)
		}
	}
	if tbl != nil {
		tbl.Fprint(benchOut)
	}
}

func BenchmarkFigure1(b *testing.B) { runExperiment(b, "F1") }
func BenchmarkFigure2(b *testing.B) { runExperiment(b, "F2") }
func BenchmarkFigure3(b *testing.B) { runExperiment(b, "F3") }
func BenchmarkFigure4(b *testing.B) { runExperiment(b, "F4") }
func BenchmarkFigure5(b *testing.B) { runExperiment(b, "F5") }
func BenchmarkTable1(b *testing.B)  { runExperiment(b, "T1") }
func BenchmarkTable2(b *testing.B)  { runExperiment(b, "T2") }
func BenchmarkTable3(b *testing.B)  { runExperiment(b, "T3") }
func BenchmarkTable4(b *testing.B)  { runExperiment(b, "T4") }
func BenchmarkTable5(b *testing.B)  { runExperiment(b, "T5") }
func BenchmarkTable6(b *testing.B)  { runExperiment(b, "T6") }
func BenchmarkTable7(b *testing.B)  { runExperiment(b, "T7") }
func BenchmarkFigure6(b *testing.B) { runExperiment(b, "F6") }
func BenchmarkFigure7(b *testing.B) { runExperiment(b, "F7") }
func BenchmarkFigure8(b *testing.B) { runExperiment(b, "F8") }
func BenchmarkTable9(b *testing.B)  { runExperiment(b, "T9") }

// Ablation benches (DESIGN.md "key design decisions").
func BenchmarkAblationWallVsSim(b *testing.B)    { runExperiment(b, "A1") }
func BenchmarkAblationUniformCosts(b *testing.B) { runExperiment(b, "A2") }
func BenchmarkAblationStealPolicy(b *testing.B)  { runExperiment(b, "A3") }
func BenchmarkAblationLPT(b *testing.B)          { runExperiment(b, "A4") }
func BenchmarkAblationFlatFM(b *testing.B)       { runExperiment(b, "A5") }
func BenchmarkAblationChunkSize(b *testing.B)    { runExperiment(b, "A6") }
func BenchmarkAblationSelfSched(b *testing.B)    { runExperiment(b, "A7") }
func BenchmarkAblationFMRefiner(b *testing.B)    { runExperiment(b, "A8") }

// Wall-clock backend (BENCH_wall.json; `make bench-wall`).
func BenchmarkWallBackend(b *testing.B)  { runExperiment(b, "W1") }
func BenchmarkWallFeedback(b *testing.B) { runExperiment(b, "W3") }

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
		chem.ERIBlockPair(pd, pd)
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
	d := linalg.Identity(bs.NBF)
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
		for d.Len() > 0 {
			d.StealHalf()
		}
	}
}

func BenchmarkSemiMatchUnweighted(b *testing.B) {
	g := semimatching.Complete(512, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		semimatching.SemiMatch(g)
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

// Before/after pair for the worker scratch arena: the baseline path
// allocates its ERI block, Hermite tables and Boys workspace per
// quartet; the arena path reuses one scratch across the whole sweep.
func BenchmarkExecuteTaskBaseline(b *testing.B) {
	_, bs := waterBasis(b, 1, "sto-3g")
	w := chem.BuildFockWorkload(bs, 1e-9, 4)
	d := linalg.Identity(bs.NBF)
	j := linalg.NewMatrix(bs.NBF, bs.NBF)
	k := linalg.NewMatrix(bs.NBF, bs.NBF)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.ExecuteTaskBaseline(&w.Tasks[i%len(w.Tasks)], d, j, k)
	}
}

func BenchmarkExecuteTaskArena(b *testing.B) {
	_, bs := waterBasis(b, 1, "sto-3g")
	w := chem.BuildFockWorkload(bs, 1e-9, 4)
	d := linalg.Identity(bs.NBF)
	j := linalg.NewMatrix(bs.NBF, bs.NBF)
	k := linalg.NewMatrix(bs.NBF, bs.NBF)
	scratch := w.NewScratch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.ExecuteTaskScratch(&w.Tasks[i%len(w.Tasks)], d, j, k, scratch)
	}
}

func BenchmarkWallStealingFock(b *testing.B) {
	mol, bs := waterBasis(b, 2, "sto-3g")
	w := chem.BuildFockWorkload(bs, 1e-9, 4)
	h := chem.CoreHamiltonian(bs, mol)
	d := linalg.Identity(bs.NBF)
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

func init() {
	// Ensure the experiment registry and benchmark list stay in sync: a
	// new experiment without a benchmark is a packaging bug.
	want := map[string]bool{}
	for _, id := range bench.Experiments() {
		want[id] = true
	}
	for _, id := range []string{"F1", "F2", "F3", "F4", "F5", "F6", "F7", "F8", "T1", "T2", "T3", "T4", "T5", "T6", "T7", "T9", "A1", "A2", "A3", "A4", "A5", "A6", "A7", "A8", "W1", "W3"} {
		if !want[id] {
			panic(fmt.Sprintf("bench_test: experiment %s missing from registry", id))
		}
		delete(want, id)
	}
	if len(want) > 0 {
		panic(fmt.Sprintf("bench_test: experiments lack benchmarks: %v", want))
	}
}
