package chem

// Kernel before/after micro-benchmarks: each "before" side is a test
// oracle of oracle_test.go, its "after" partner the production path.
// Run them with:
//
//	go test -run '^$' -bench 'ERIBlock|ExecuteTask|FockBuild' -benchmem ./internal/chem/
//
// BenchmarkERIBlockPairClass times the production kernel alone, one row
// per (lbra, ltot) class:
//
//	go test -run '^$' -bench 'ERIBlockPairClass' -benchmem ./internal/chem/
//
// BenchmarkHermiteR times one R cube, Boys included, one row per order:
//
//	go test -run '^$' -bench 'HermiteR' -benchmem ./internal/chem/

import (
	"fmt"
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

// blockSink keeps the timed kernel calls observable to the compiler.
var blockSink float64

// One sub-benchmark per (lbra, ltot) class of ERIBlockPairInto, lbra >=
// lket (the kernel swaps a pair with the smaller Hermite order into the
// ket), on a water's STO-3G s (O 1s) and merged sp (O 2sp) shells and
// its 6-31G* d shell: lab 0 is (s s), 1 (sp s), 2 (sp sp), 3 (d sp) and
// 4 (d d). Each runs on a warmed NewERIScratch and must allocate nothing.
func BenchmarkERIBlockPairClass(b *testing.B) {
	mol := Water()
	sto := mustBasis(b, "sto-3g", mol)
	star := mustBasis(b, "6-31g*", mol)
	s, sp, d := &sto.Shells[0], &sto.Shells[1], firstShell(star, 2)
	if s.L != 0 || sp.SCoefs == nil || d == nil {
		b.Fatal("water's STO-3G O 1s, O 2sp or 6-31G* d shell not where expected")
	}
	pairs := []*PairData{
		NewPairData(s, s), NewPairData(sp, s), NewPairData(sp, sp), NewPairData(d, sp), NewPairData(d, d),
	}
	scratch := NewERIScratch(star)
	for lbra, bra := range pairs {
		for lket, ket := range pairs[:lbra+1] {
			b.Run(fmt.Sprintf("lbra%d_ltot%d", lbra, lbra+lket), func(b *testing.B) {
				ERIBlockPairInto(bra, ket, scratch)
				if n := testing.AllocsPerRun(10, func() { ERIBlockPairInto(bra, ket, scratch) }); n != 0 {
					b.Fatalf("%g allocations per block", n)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					blockSink += ERIBlockPairInto(bra, ket, scratch)[0]
				}
			})
		}
	}
}

// One sub-benchmark per Hermite order 0–8 of hermiteRWork.compute, Boys
// included, at x = p·|PC|² ≈ 1.9, below Boys' switch as most calls of a
// Fock build are: orders 1–4 take the straight-line code, 5–8 the loop.
// Each runs on a warmed workspace and must allocate nothing.
func BenchmarkHermiteR(b *testing.B) {
	const p, scale = 1.3, 0.7
	pc := Vec3{X: 0.4, Y: -0.7, Z: 0.9}
	var w hermiteRWork
	w.grow(boysTableOrder)
	for tmax := 0; tmax <= boysTableOrder; tmax++ {
		b.Run(fmt.Sprintf("order%d", tmax), func(b *testing.B) {
			if n := testing.AllocsPerRun(10, func() { w.compute(tmax, p, pc, scale) }); n != 0 {
				b.Fatalf("%g allocations per cube", n)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				blockSink += w.compute(tmax, p, pc, scale)[0]
			}
		})
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
	res, err := RunUHF(mol, bs, UHFOptions{})
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
