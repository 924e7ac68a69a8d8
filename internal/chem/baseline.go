package chem

import "execmodels/internal/linalg"

// This file hosts the two reference implementations the differential test
// harness pins the fast path against:
//
//   - ExecuteTaskBaseline / ExecuteTaskSpinBaseline: the pre-arena task
//     executor, still screening inside the worker loop. It is the "before"
//     side of the BenchmarkExecuteTask* pair and the foil proving that
//     generation-time screening (FockTask.Kets) selects exactly the
//     quartets the in-loop bound test did.
//   - BuildFockNaive / NaiveSpinJK: the symmetry-free, unscreened
//     quadruple shell loop — every ordered quartet computed independently,
//     no 8-fold folding, no Schwarz bound. It is the ground truth the
//     canonical-quartet enumeration and symmetric digest are validated
//     against (and the cmd/hfscf -nosym escape hatch).
//
// Both compute every block with ERIBlock, the one ERI reference: a fresh
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

// naiveJK accumulates J and the given exchange matrices over every
// ordered shell quartet of the basis — the quadruple loop with no
// permutational symmetry and no screening. Each ordered quartet's block
// is computed independently by ERIBlock and digested once with the
// identity permutation, so the 8-fold folding never enters.
func naiveJK(bs *BasisSet, dj *linalg.Matrix, dks []*linalg.Matrix, j *linalg.Matrix, ks []*linalg.Matrix) {
	sh := bs.Shells
	for ia := range sh {
		for ib := range sh {
			for ic := range sh {
				for id := range sh {
					a, b, c, d := &sh[ia], &sh[ib], &sh[ic], &sh[id]
					blk := ERIBlock(a, b, c, d)
					nb, nc, nd := b.NumFuncs(), c.NumFuncs(), d.NumFuncs()
					digestJK(j, dj, ks, dks, a, b, c, d, func(fa, fb, fc, fd int) float64 {
						return blk[((fa*nb+fb)*nc+fc)*nd+fd]
					})
				}
			}
		}
	}
}

// BuildFockNaive computes F = H + J − K/2 by the naive quadruple shell
// loop: every ordered quartet (N⁴ of them) computed once, no symmetry
// folding, no Schwarz screening. It is the semantic ground truth for the
// symmetric screened build (equal to a threshold-0 BuildFock up to
// floating-point accumulation order) and the cmd/hfscf -nosym path. Cost
// is ~8× the symmetric build before screening even starts — small
// systems only.
func BuildFockNaive(bs *BasisSet, h, d *linalg.Matrix) *linalg.Matrix {
	n := bs.NBF
	j := linalg.NewMatrix(n, n)
	k := linalg.NewMatrix(n, n)
	naiveJK(bs, d, []*linalg.Matrix{d}, j, []*linalg.Matrix{k})
	return assembleFock(h, j, k, 0.5)
}

// NaiveSpinJK is the unrestricted naive reference: J contracted against
// the total density and per-spin exchange matrices against dA/dB, over
// every ordered quartet with no symmetry or screening.
func NaiveSpinJK(bs *BasisSet, dTot, dA, dB *linalg.Matrix) (j, kA, kB *linalg.Matrix) {
	n := bs.NBF
	j = linalg.NewMatrix(n, n)
	kA = linalg.NewMatrix(n, n)
	kB = linalg.NewMatrix(n, n)
	naiveJK(bs, dTot, []*linalg.Matrix{dA, dB}, j, []*linalg.Matrix{kA, kB})
	return j, kA, kB
}
