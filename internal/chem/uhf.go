package chem

import (
	"fmt"
	"math"

	"execmodels/internal/linalg"
)

// UHFOptions configures the unrestricted Hartree–Fock driver.
type UHFOptions struct {
	Multiplicity int     // 2S+1; 0 = lowest consistent with electron parity
	MaxIter      int     // default 100
	ConvDensity  float64 // default 1e-8
	ConvEnergy   float64 // default 1e-9
	Screening    float64 // default 1e-10
	BlockSize    int     // default 4
	Damping      float64 // density damping in [0,1); default 0.3 (UHF is twitchy)
	NoDamping    bool    // force damping off
	UseDIIS      bool    // Pulay DIIS on the combined (Fα, Fβ) error vector
	DIISVectors  int     // subspace size (default 6)

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

func (o *UHFOptions) setDefaults(nElectrons int) error {
	if o.Multiplicity == 0 {
		o.Multiplicity = 1 + nElectrons%2
	}
	if (nElectrons-o.Multiplicity+1)%2 != 0 || o.Multiplicity < 1 {
		return fmt.Errorf("chem: multiplicity %d impossible with %d electrons", o.Multiplicity, nElectrons)
	}
	if o.MaxIter == 0 {
		o.MaxIter = 100
	}
	if o.ConvDensity == 0 {
		o.ConvDensity = 1e-8
	}
	if o.ConvEnergy == 0 {
		o.ConvEnergy = 1e-9
	}
	if o.Screening == 0 {
		o.Screening = 1e-10
	}
	if o.BlockSize == 0 {
		o.BlockSize = 4
	}
	if o.Damping == 0 && !o.NoDamping && !o.UseDIIS {
		// Plain UHF iteration oscillates easily; default to damping
		// unless DIIS is handling convergence.
		o.Damping = 0.3
	}
	if o.NoDamping {
		o.Damping = 0
	}
	return nil
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
// and β orbital sets, Fock matrices F^σ = H + J[Dα+Dβ] − K[Dσ].
func RunUHF(mol *Molecule, bs *BasisSet, opts UHFOptions) (*UHFResult, error) {
	ne := mol.NumElectrons()
	if err := opts.setDefaults(ne); err != nil {
		return nil, err
	}
	nUnpaired := opts.Multiplicity - 1
	nAlpha := (ne + nUnpaired) / 2
	nBeta := ne - nAlpha
	if nBeta < 0 || nAlpha > bs.NBF {
		return nil, fmt.Errorf("chem: cannot place %dα/%dβ electrons in %d functions", nAlpha, nBeta, bs.NBF)
	}

	s := Overlap(bs)
	h := CoreHamiltonian(bs, mol)
	x := linalg.InvSqrtSym(s, 1e-10)
	w := BuildFockWorkload(bs, opts.Screening, opts.BlockSize)
	enuc := mol.NuclearRepulsion()
	n := bs.NBF

	// Core guess for both spins; a slight α/β symmetry-breaking
	// perturbation lets open-shell solutions separate.
	dA, _, _ := uhfDensity(h, x, nAlpha)
	hB := h.Clone()
	if nAlpha != nBeta {
		hB.Add(0, 0, 1e-3)
	}
	dB, _, _ := uhfDensity(hB, x, nBeta)

	res := &UHFResult{Nuclear: enuc, NAlpha: nAlpha, NBeta: nBeta, Workload: w}
	var diisA, diisB *diisState
	if opts.UseDIIS {
		diisA = newDIIS(opts.DIISVectors)
		diisB = newDIIS(opts.DIISVectors)
	}
	var ePrev float64
	scratch := w.NewScratch()
	for iter := 1; iter <= opts.MaxIter; iter++ {
		dTot := dA.Clone()
		dTot.AddScaled(1, dB)

		var j, kA, kB *linalg.Matrix
		if opts.Builder != nil {
			j, kA, kB = opts.Builder(w, dTot, dA, dB)
		} else {
			j = linalg.NewMatrix(n, n)
			kA = linalg.NewMatrix(n, n)
			kB = linalg.NewMatrix(n, n)
			for i := range w.Tasks {
				w.ExecuteTaskSpinScratch(&w.Tasks[i], dTot, dA, dB, j, kA, kB, scratch)
			}
		}
		fA := h.Clone()
		fA.AddScaled(1, j)
		fA.AddScaled(-1, kA)
		fA.Symmetrize()
		fB := h.Clone()
		fB.AddScaled(1, j)
		fB.AddScaled(-1, kB)
		fB.Symmetrize()

		// E_elec = ½ Σ [Dtot·H + Dα·Fα + Dβ·Fβ]
		var eElec float64
		for i := range h.Data {
			eElec += dTot.Data[i]*h.Data[i] + dA.Data[i]*fA.Data[i] + dB.Data[i]*fB.Data[i]
		}
		eElec *= 0.5

		fDiagA, fDiagB := fA, fB
		if diisA != nil {
			// UHF-DIIS extrapolates each spin's Fock matrix with its own
			// subspace; each uses that spin's orbital-gradient residual.
			diisA.push(fA, diisError(fA, dA, s, x))
			diisB.push(fB, diisError(fB, dB, s, x))
			if fx := diisA.extrapolate(); fx != nil {
				fDiagA = fx
			}
			if fx := diisB.extrapolate(); fx != nil {
				fDiagB = fx
			}
		}

		newDA, cA, orbA := uhfDensity(fDiagA, x, nAlpha)
		newDB, cB, orbB := uhfDensity(fDiagB, x, nBeta)
		if opts.Damping > 0 && iter > 1 {
			newDA.Scale(1-opts.Damping).AddScaled(opts.Damping, dA)
			newDB.Scale(1-opts.Damping).AddScaled(opts.Damping, dB)
		}
		rms := math.Max(rmsDiff(newDA, dA), rmsDiff(newDB, dB))
		dE := math.Abs(eElec + enuc - ePrev)
		ePrev = eElec + enuc

		res.Energy = ePrev
		res.Electronic = eElec
		res.Iterations = iter
		res.OrbitalEA, res.OrbitalEB = orbA, orbB
		res.CA, res.CB = cA, cB
		res.DA, res.DB = newDA, newDB
		dA, dB = newDA, newDB

		if iter > 1 && rms < opts.ConvDensity && dE < opts.ConvEnergy {
			res.Converged = true
			break
		}
	}
	res.S2 = spinExpectation(res, s)
	return res, nil
}

// uhfDensity is densityFromFock without the factor of 2 (one electron per
// occupied spin orbital).
func uhfDensity(f, x *linalg.Matrix, nocc int) (*linalg.Matrix, *linalg.Matrix, []float64) {
	d, c, orbE := densityFromFock(f, x, nocc)
	d.Scale(0.5)
	return d, c, orbE
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
