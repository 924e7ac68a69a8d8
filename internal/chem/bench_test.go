package chem

// Kernel before/after micro-benchmarks: each "before" side is a test
// oracle of oracle_test.go, its "after" partner the production path.
// Run them with:
//
//	go test -run '^$' -bench 'ERIBlock|ExecuteTask|FockBuild' -benchmem ./internal/chem/

import (
	"testing"

	"execmodels/internal/linalg"
)

// firstShell returns the first shell of angular momentum l in bs.
func firstShell(bs *BasisSet, l int) *Shell {
	for i := range bs.Shells {
		if bs.Shells[i].L == l {
			return &bs.Shells[i]
		}
	}
	return nil
}

func BenchmarkERIBlockSSSS(b *testing.B) {
	s := firstShell(mustBasis(b, "sto-3g", WaterCluster(1, 1)), 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ERIBlock(s, s, s, s)
	}
}

func BenchmarkERIBlockPPPP(b *testing.B) {
	p := firstShell(mustBasis(b, "sto-3g", WaterCluster(1, 1)), 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ERIBlock(p, p, p, p)
	}
}

// The pair-data cache vs recomputing Hermite tables per quartet.
func BenchmarkERIBlockPairCached(b *testing.B) {
	p := firstShell(mustBasis(b, "sto-3g", WaterCluster(1, 1)), 1)
	pd := NewPairData(p, p)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ERIBlockPairInto(pd, pd, &ERIScratch{})
	}
}

// convergedDensity returns the converged RHF density of mol, computed
// before any timer starts. The Fock executor skips quartets by the
// density they contract, so the identity density would time the
// executor's skip rule, not its kernel.
func convergedDensity(b *testing.B, mol *Molecule, bs *BasisSet) *linalg.Matrix {
	b.Helper()
	res, err := RunSCF(mol, bs, SCFOptions{UseDIIS: true}, nil)
	if err != nil || !res.Converged {
		b.Fatalf("RunSCF: converged %v, %v", res != nil && res.Converged, err)
	}
	return res.D
}

func BenchmarkFockBuildSerial(b *testing.B) {
	mol := WaterCluster(1, 1)
	bs := mustBasis(b, "sto-3g", mol)
	w := BuildFockWorkload(bs, 1e-9, 4)
	h := CoreHamiltonian(bs, mol)
	d := convergedDensity(b, mol, bs)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.BuildFock(h, d)
	}
}

// Before/after pair for the worker scratch arena: the baseline path
// allocates its ERI block, Hermite tables and Boys workspace per
// quartet; the arena path reuses one scratch across the whole sweep.
// Both run at a converged density.
func BenchmarkExecuteTaskBaseline(b *testing.B) {
	mol := WaterCluster(1, 1)
	bs := mustBasis(b, "sto-3g", mol)
	w := BuildFockWorkload(bs, 1e-9, 4)
	d := convergedDensity(b, mol, bs)
	j, k := newMat(bs.NBF), newMat(bs.NBF)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.ExecuteTaskBaseline(&w.Tasks[i%len(w.Tasks)], d, j, k)
	}
}

func BenchmarkExecuteTaskArena(b *testing.B) {
	mol := WaterCluster(1, 1)
	bs := mustBasis(b, "sto-3g", mol)
	w := BuildFockWorkload(bs, 1e-9, 4)
	d := convergedDensity(b, mol, bs)
	j, k := newMat(bs.NBF), newMat(bs.NBF)
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
	mol := WaterCluster(2, 1)
	bs := mustBasis(b, "6-31g", mol)
	res, err := RunUHF(mol, bs, UHFOptions{UseDIIS: true})
	if err != nil || !res.Converged {
		b.Fatalf("RunUHF: converged %v, %v", res != nil && res.Converged, err)
	}
	w := res.Workload
	dTot := res.DA.Clone().AddScaled(1, res.DB)
	n := bs.NBF
	j, kA, kB := newMat(n), newMat(n), newMat(n)
	scratch := w.NewScratch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.ExecuteTaskSpinScratch(&w.Tasks[i%len(w.Tasks)], dTot, res.DA, res.DB, j, kA, kB, scratch)
	}
}
