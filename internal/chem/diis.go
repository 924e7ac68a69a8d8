package chem

import (
	"execmodels/internal/linalg"
)

// diisState implements Pulay's DIIS (direct inversion in the iterative
// subspace) convergence acceleration: the Fock matrix actually
// diagonalized is the linear combination of recent Fock matrices that
// minimizes the norm of the combined orbital-gradient residual
// e = F·D·S − S·D·F (expressed in the orthonormal basis).
type diisState struct {
	maxVecs int
	focks   []*linalg.Matrix
	errs    []*linalg.Matrix
}

func newDIIS(maxVecs int) *diisState {
	if maxVecs < 2 {
		maxVecs = 6
	}
	return &diisState{maxVecs: maxVecs}
}

// push records a Fock matrix and its error vector, evicting the oldest
// entry beyond capacity.
func (st *diisState) push(f, e *linalg.Matrix) {
	st.focks = append(st.focks, f.Clone())
	st.errs = append(st.errs, e.Clone())
	if len(st.focks) > st.maxVecs {
		st.focks = st.focks[1:]
		st.errs = st.errs[1:]
	}
}

// extrapolate returns the DIIS-combined Fock matrix, or nil when the
// subspace is too small or the B-system is unsolvable (caller then uses
// the raw Fock matrix).
func (st *diisState) extrapolate() *linalg.Matrix {
	m := len(st.focks)
	if m < 2 {
		return nil
	}
	// Solve the (m+1)×(m+1) Pulay system:
	//   [ B   -1 ] [ c ]   [ 0 ]
	//   [ -1ᵀ  0 ] [ λ ] = [ -1 ]
	// where B_ij = <e_i, e_j>.
	n := m + 1
	a := linalg.NewMatrix(n, n)
	rhs := make([]float64, n)
	for i := 0; i < m; i++ {
		for j := 0; j < m; j++ {
			a.Set(i, j, linalg.Dot(st.errs[i].Data, st.errs[j].Data))
		}
		a.Set(i, m, -1)
		a.Set(m, i, -1)
	}
	rhs[m] = -1
	c, ok := linalg.Solve(a, rhs)
	if !ok {
		return nil
	}
	out := linalg.NewMatrix(st.focks[0].Rows, st.focks[0].Cols)
	for i := 0; i < m; i++ {
		out.AddScaled(c[i], st.focks[i])
	}
	return out
}

// diisError computes the orbital-gradient residual FDS − SDF transformed
// to the orthonormal basis: Xᵀ (FDS − SDF) X.
func diisError(f, d, s, x *linalg.Matrix) *linalg.Matrix {
	fds := linalg.MatMul(f, linalg.MatMul(d, s))
	sdf := linalg.MatMul(s, linalg.MatMul(d, f))
	fds.AddScaled(-1, sdf)
	return linalg.TripleProduct(x, fds)
}
