package chem

import "execmodels/internal/linalg"

// This file hosts the reference executor the differential test harness
// pins the fast path against: ExecuteTaskBaseline /
// ExecuteTaskSpinBaseline, the pre-arena task executor, still screening
// inside the worker loop. It is the "before" side of the
// BenchmarkExecuteTask* pair and the foil proving that generation-time
// screening (FockTask.Kets) selects exactly the quartets the in-loop
// bound test did. The symmetry-free naive quadruple loop lives beside the
// tests that compare against it (symmetry_test.go).
//
// It computes every block with ERIBlock, the one ERI reference: a fresh
// result block and fresh Hermite E and R tables per primitive quartet,
// nothing cached per shell pair. Those per-quartet costs are the point of
// the baseline executor.

// ExecuteTaskBaseline is the pre-arena reference implementation of
// ExecuteTaskScratch, retained as the "before" side of the
// BenchmarkExecuteTask* pair and as the allocation-behavior foil in
// tests: it allocates the ERI block, the Hermite workspaces and the
// digest closures per quartet. Its results must match ExecuteTaskScratch
// exactly up to floating-point accumulation order.
func (w *FockWorkload) ExecuteTaskBaseline(t *FockTask, d, j, k *linalg.Matrix) int {
	return w.executeTaskBaseline(t, d, []*linalg.Matrix{k}, []*linalg.Matrix{d}, j)
}

// ExecuteTaskSpinBaseline is the unrestricted counterpart of
// ExecuteTaskBaseline: J digests the total density and separate exchange
// matrices the α/β densities. The differential harness pins
// ExecuteTaskSpinScratch against it.
func (w *FockWorkload) ExecuteTaskSpinBaseline(t *FockTask, dTot, dA, dB, j, kA, kB *linalg.Matrix) int {
	return w.executeTaskBaseline(t, dTot, []*linalg.Matrix{kA, kB}, []*linalg.Matrix{dA, dB}, j)
}

// executeTaskBaseline is the pre-arena quartet loop, with the Schwarz
// bound still tested inside the worker.
func (w *FockWorkload) executeTaskBaseline(t *FockTask, dj *linalg.Matrix, ks, dks []*linalg.Matrix, j *linalg.Matrix) int {
	shells := w.Basis.Shells
	var done int
	for bi, bra := range t.BraPairs {
		for ki, ket := range w.Pairs {
			if t.PairOffset+bi < ki {
				break
			}
			if bra.Bound*ket.Bound < w.Threshold {
				continue
			}
			blk := ERIBlock(&shells[bra.I], &shells[bra.J], &shells[ket.I], &shells[ket.J])
			digestUniqueQuartet(j, dj, ks, dks, shells, bra.I, bra.J, ket.I, ket.J, blk)
			done++
		}
	}
	return done
}

// BuildFockBaseline is BuildFock through ExecuteTaskBaseline: the serial
// pre-arena reference Fock matrix the differential equivalence matrix
// compares every executor × worker-count × block-size cell against.
func (w *FockWorkload) BuildFockBaseline(h, d *linalg.Matrix) *linalg.Matrix {
	n := w.Basis.NBF
	j := linalg.NewMatrix(n, n)
	k := linalg.NewMatrix(n, n)
	for i := range w.Tasks {
		w.ExecuteTaskBaseline(&w.Tasks[i], d, j, k)
	}
	return assembleFock(h, j, k, 0.5)
}
