package chem

import (
	"fmt"

	"execmodels/internal/linalg"
)

// UHFOptions configures the unrestricted Hartree–Fock driver.
type UHFOptions struct {
	Multiplicity int // 2S+1; 0 = lowest consistent with electron parity
	MaxIter      int // default 100
	// ConvDensity bounds the RMS change of the iterated matrices, here Dα
	// and Dβ: for a closed shell, half as strict as the same value in
	// SCFOptions, which bounds D = 2Dσ (default 1e-8).
	ConvDensity float64
	ConvEnergy  float64 // default 1e-9
	Screening   float64 // default 1e-10
	BlockSize   int     // default 4
	Damping     float64 // density damping in [0,1); default 0.3 without DIIS (UHF is twitchy), 0 with it
	UseDIIS     bool    // Pulay DIIS, one subspace per spin, each on its own residual Fσ·Dσ·S − S·Dσ·Fσ
	DIISVectors int     // subspace size (default 6)

	// Builder, if non-nil, computes each iteration's J/Kα/Kβ matrices in
	// place of the serial task loop — the hook the wall-clock backend
	// plugs into (core.SchedulerUHFFockBuilder), mirroring RunSCF's
	// FockBuilder parameter.
	Builder UHFFockBuilder
}

// UHFFockBuilder computes the Coulomb matrix (contracted against the
// total density) and the per-spin exchange matrices (against dA and dB)
// for one unrestricted Fock build. Implementations must be equivalent to
// the serial ExecuteTaskSpinScratch sweep up to floating-point accumulation
// order.
type UHFFockBuilder func(w *FockWorkload, dTot, dA, dB *linalg.Matrix) (j, kA, kB *linalg.Matrix)

// loopOptions are the options as scfLoop reads them, with the two
// defaults that differ from RunSCF's applied.
func (o UHFOptions) loopOptions() SCFOptions {
	l := SCFOptions{
		MaxIter: o.MaxIter, ConvDensity: o.ConvDensity, ConvEnergy: o.ConvEnergy,
		Screening: o.Screening, BlockSize: o.BlockSize,
		Damping: o.Damping, UseDIIS: o.UseDIIS, DIISVectors: o.DIISVectors,
	}
	if l.MaxIter == 0 {
		l.MaxIter = 100
	}
	if l.Damping == 0 && !l.UseDIIS {
		// Plain UHF iteration oscillates easily; default to damping
		// unless DIIS is handling convergence.
		l.Damping = 0.3
	}
	l.setDefaults()
	return l
}

// UHFResult holds the final state of a UHF run.
type UHFResult struct {
	Energy     float64
	Electronic float64
	Nuclear    float64
	Iterations int
	Converged  bool
	NAlpha     int
	NBeta      int
	OrbitalEA  []float64
	OrbitalEB  []float64
	CA, CB     *linalg.Matrix
	DA, DB     *linalg.Matrix
	S2         float64 // ⟨S²⟩ expectation, spin-contamination diagnostic
	Workload   *FockWorkload
}

// RunUHF performs an unrestricted Hartree–Fock calculation: separate α
// and β orbital sets, Fock matrices F^σ = H + J[Dα+Dβ] − K[Dσ]. A
// negative MaxIter, BlockSize or Screening is an error.
func RunUHF(mol *Molecule, bs *BasisSet, opts UHFOptions) (*UHFResult, error) {
	lo := opts.loopOptions()
	if err := lo.validate(); err != nil {
		return nil, err
	}
	ne := mol.NumElectrons()
	mult := opts.Multiplicity
	if mult == 0 {
		mult = 1 + ne%2
	}
	if (ne-mult+1)%2 != 0 || mult < 1 {
		return nil, fmt.Errorf("chem: multiplicity %d impossible with %d electrons", mult, ne)
	}
	nAlpha := (ne + mult - 1) / 2
	nBeta := ne - nAlpha
	if nBeta < 0 || nAlpha > bs.NBF {
		return nil, fmt.Errorf("chem: cannot place %dα/%dβ electrons in %d functions", nAlpha, nBeta, bs.NBF)
	}
	st, err := scfLoop(mol, bs, unrestricted(nAlpha, nBeta, opts.Builder), lo)
	res := &UHFResult{
		Energy: st.energy, Electronic: st.electronic, Nuclear: st.nuclear,
		Iterations: st.iter, Converged: st.converged, NAlpha: nAlpha, NBeta: nBeta,
		OrbitalEA: st.orbE[0], OrbitalEB: st.orbE[1],
		CA: st.cs[0], CB: st.cs[1], DA: st.ds[0], DB: st.ds[1], Workload: st.w,
	}
	res.S2 = spinExpectation(res, st.s)
	return res, err
}

// unrestricted iterates the α and β densities of singly-occupied
// orbitals, with Fσ = H + J[Dα+Dβ] − K[Dσ] from build (nil: the serial
// task sweep).
func unrestricted(nAlpha, nBeta int, build UHFFockBuilder) spinTreatment {
	if build == nil {
		build = serialSpinJK
	}
	return spinTreatment{
		nocc:      []int{nAlpha, nBeta},
		occupancy: 1,
		fock: func(w *FockWorkload, h *linalg.Matrix, ds []*linalg.Matrix) []*linalg.Matrix {
			dTot := ds[0].Clone()
			dTot.AddScaled(1, ds[1])
			j, kA, kB := build(w, dTot, ds[0], ds[1])
			return []*linalg.Matrix{assembleFock(h, j, kA, 1), assembleFock(h, j, kB, 1)}
		},
	}
}

// serialSpinJK is the builder RunUHF uses when given none: the serial
// task sweep, the unrestricted counterpart of BuildFock's.
func serialSpinJK(w *FockWorkload, dTot, dA, dB *linalg.Matrix) (j, kA, kB *linalg.Matrix) {
	n := w.Basis.NBF
	j, kA, kB = linalg.NewMatrix(n, n), linalg.NewMatrix(n, n), linalg.NewMatrix(n, n)
	s := w.NewScratch()
	for i := range w.Tasks {
		w.ExecuteTaskSpinScratch(&w.Tasks[i], dTot, dA, dB, j, kA, kB, s)
	}
	return j, kA, kB
}

// spinExpectation returns ⟨S²⟩ = S(S+1) + Nβ − Σ_{ij} |⟨ψᵅ_i|ψᵝ_j⟩|²,
// the standard UHF spin-contamination diagnostic.
func spinExpectation(res *UHFResult, s *linalg.Matrix) float64 {
	sz := float64(res.NAlpha-res.NBeta) / 2
	exact := sz * (sz + 1)
	// Overlap of occupied α and β orbitals: O = CAᵀ S CB (occupied cols).
	o := linalg.MatMul(res.CA.Transpose(), linalg.MatMul(s, res.CB))
	var sum float64
	for i := 0; i < res.NAlpha; i++ {
		for j := 0; j < res.NBeta; j++ {
			v := o.At(i, j)
			sum += v * v
		}
	}
	return exact + float64(res.NBeta) - sum
}
