package chem

import "execmodels/internal/linalg"

// ERIScratch is a per-worker scratch arena for the two-electron hot path:
// the ERI block buffer, the Hermite R / Boys workspace and the per-task
// density maxima are allocated once and reused for every quartet, so
// the steady-state Fock build performs zero heap allocations per task.
//
// A scratch is not safe for concurrent use; each worker goroutine owns
// its own (see core.wallRunJK). The zero value works and grows on demand, but NewERIScratch pre-sizes
// everything so even the first task is allocation-free.
//
// A scratch also carries the budget by which ERIBlockPairInto may let
// skipped primitive quartets move an integral, and the Fock executor
// the quartets and primitive quartets it skips by their density move a
// Fock element's terms. Only FockWorkload.NewScratch sets one; the zero
// value and NewERIScratch are exact, which Schwarz factors and the
// kernel's oracle tests rely on.
type ERIScratch struct {
	blk []float64 // ERI shell-quartet block buffer
	acc []float64 // ERIBlockPairInto's T[cd][tuv] accumulator
	ks  [2]*linalg.Matrix
	dks [2]*linalg.Matrix
	rw  hermiteRWork

	budget float64 // primBudget of the workload's threshold; 0: exact

	// Per task, max |D| over each shell block (a·shells+b) of J's density
	// and of the exchange densities: the density weight of a quartet.
	dMaxJ, dMaxK []float64

	// R-cube offsets of the bra's and the ket's Hermite indices, recomputed
	// per quartet because the cube's stride is ltot+1.
	braOff, ketOff []int32
}

// NewERIScratch returns a scratch arena pre-sized for the largest shell
// quartet the basis set can produce.
func NewERIScratch(bs *BasisSet) *ERIScratch {
	maxNF, maxL := 1, 0
	for i := range bs.Shells {
		if nf := bs.Shells[i].NumFuncs(); nf > maxNF {
			maxNF = nf
		}
		if l := bs.Shells[i].L; l > maxL {
			maxL = l
		}
	}
	s := &ERIScratch{
		blk:    make([]float64, maxNF*maxNF*maxNF*maxNF),
		acc:    make([]float64, maxNF*maxNF*numHermite(2*maxL)),
		braOff: make([]int32, 0, numHermite(2*maxL)),
		ketOff: make([]int32, 0, numHermite(2*maxL)),
		dMaxJ:  make([]float64, len(bs.Shells)*len(bs.Shells)),
		dMaxK:  make([]float64, len(bs.Shells)*len(bs.Shells)),
	}
	s.rw.grow(4 * maxL)
	return s
}

// NewScratch returns a scratch arena sized for the workload's basis set,
// with the primitive-skip budget of its threshold, primBudget: the
// scratch of every Fock build, serial or parallel. Every worker of a
// parallel Fock build should hold exactly one.
func (w *FockWorkload) NewScratch() *ERIScratch {
	s := NewERIScratch(w.Basis)
	s.budget = primBudget(w.Threshold)
	return s
}

// JKAccum bundles the worker-private Coulomb/exchange accumulators of a
// parallel Fock build with the scratch arena that digests into them: J
// plus one exchange matrix per spin channel (KB nil for spin-restricted
// builds). Executors hand each worker one JKAccum, let it digest its
// tasks allocation-free, and fold the accumulators into the shared
// matrices only after every worker has finished — the symmetric digest
// scatters into all eight J/K slots of a quartet, so workers must never
// share an accumulator mid-build (see core's post-wg.Wait merge).
type JKAccum struct {
	J, KA, KB *linalg.Matrix
	Scratch   *ERIScratch
}

// NewJKAccum returns a worker accumulator sized for the workload; spin
// selects the unrestricted shape with separate Kα/Kβ.
func (w *FockWorkload) NewJKAccum(spin bool) *JKAccum {
	n := w.Basis.NBF
	a := &JKAccum{
		J:       linalg.NewMatrix(n, n),
		KA:      linalg.NewMatrix(n, n),
		Scratch: w.NewScratch(),
	}
	if spin {
		a.KB = linalg.NewMatrix(n, n)
	}
	return a
}

// ExecuteTaskAccum digests one task into the accumulator: the restricted
// contraction when a.KB is nil (dj feeds J, dkA the single K), otherwise
// the unrestricted one (dj = total density, dkA/dkB the per-spin
// exchange densities). It is the single entry point the wall-clock
// worker loop uses for both spin shapes.
func (w *FockWorkload) ExecuteTaskAccum(t *FockTask, dj, dkA, dkB *linalg.Matrix, a *JKAccum) int {
	s := a.Scratch
	if a.KB == nil {
		s.ks[0], s.dks[0] = a.KA, dkA
		return w.executeTask(t, dj, s.ks[:1], s.dks[:1], a.J, s)
	}
	s.ks[0], s.ks[1] = a.KA, a.KB
	s.dks[0], s.dks[1] = dkA, dkB
	return w.executeTask(t, dj, s.ks[:2], s.dks[:2], a.J, s)
}

// MergeInto folds the worker's accumulators into the shared J/K
// matrices. Callers sequence merges (worker 0, 1, ...) after all workers
// have stopped digesting, so the result is deterministic for a fixed
// worker count and the merge itself needs no synchronization.
func (a *JKAccum) MergeInto(j, kA, kB *linalg.Matrix) {
	j.AddScaled(1, a.J)
	kA.AddScaled(1, a.KA)
	if a.KB != nil && kB != nil {
		kB.AddScaled(1, a.KB)
	}
}
