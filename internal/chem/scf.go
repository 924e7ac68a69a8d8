package chem

import (
	"errors"
	"fmt"
	"math"

	"execmodels/internal/linalg"
)

// SCFOptions configures the restricted Hartree–Fock driver.
type SCFOptions struct {
	MaxIter     int     // maximum SCF iterations (default 50)
	ConvDensity float64 // RMS change threshold on the iterated matrix, the total density D (default 1e-8)
	ConvEnergy  float64 // energy change threshold (default 1e-9)
	Screening   float64 // Schwarz screening threshold (default 1e-10)
	BlockSize   int     // bra-pair block size for the Fock workload (default 4)
	Damping     float64 // density damping factor in [0,1); 0 disables (default 0)

	// UseDIIS enables Pulay DIIS convergence acceleration: the Fock
	// matrix diagonalized each iteration is the error-minimizing linear
	// combination of the last DIISVectors Fock matrices.
	UseDIIS     bool
	DIISVectors int // subspace size (default 6)

	// OnIteration, if non-nil, is invoked after every completed SCF
	// iteration with that iteration's state. Returning a non-nil error
	// interrupts the run: RunSCF stops immediately and returns the
	// partial result together with an error wrapping ErrSCFInterrupted
	// and the callback's error. Long-running drivers use this hook to
	// stream progress and to checkpoint resumable state.
	OnIteration func(p SCFProgress) error

	// Resume, if non-nil, restarts a run from a previously checkpointed
	// iteration instead of a fresh guess: the density and energy must be
	// the ones reported by OnIteration for Resume.Iteration. Iteration
	// numbering continues from there (MaxIter counts total iterations,
	// including the checkpointed ones). DIIS history is not part of the
	// checkpoint — the subspace is rebuilt from scratch after a resume,
	// so the post-restart trajectory may differ from the uninterrupted
	// one, but both converge to the same fixed point.
	Resume *SCFRestart
}

// SCFProgress is the state of one completed SCF iteration, as delivered
// to SCFOptions.OnIteration. D is the density that enters the next
// iteration; together with Iter and Energy it is exactly the state a
// checkpoint needs for SCFOptions.Resume.
type SCFProgress struct {
	Iter   int
	Energy float64 // total energy (electronic + nuclear) after this iteration
	DeltaE float64 // |energy change| vs the previous iteration
	RMSD   float64 // RMS density change vs the previous iteration
	D      *linalg.Matrix
}

// SCFRestart is the checkpointed state RunSCF resumes from.
type SCFRestart struct {
	Iteration int            // last completed iteration
	Energy    float64        // total energy after that iteration
	D         *linalg.Matrix // density entering iteration Iteration+1
}

// ErrSCFInterrupted is wrapped by RunSCF's error when an OnIteration
// callback aborts the run. The returned *SCFResult still holds the last
// completed iteration's state.
var ErrSCFInterrupted = errors.New("chem: SCF run interrupted")

// validate refuses a negative size; zero means the default.
func (o *SCFOptions) validate() error {
	switch {
	case o.MaxIter < 0:
		return fmt.Errorf("chem: MaxIter %d is negative", o.MaxIter)
	case o.BlockSize < 0:
		return fmt.Errorf("chem: BlockSize %d is negative", o.BlockSize)
	case !(o.Screening >= 0):
		return fmt.Errorf("chem: Screening threshold %g must not be negative", o.Screening)
	}
	return nil
}

// setDefaults fills what the caller left zero. RunUHF sets its own
// MaxIter and Damping defaults before it calls this; the rest are shared.
func (o *SCFOptions) setDefaults() {
	if o.MaxIter == 0 {
		o.MaxIter = 50
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
}

// SCFResult holds the converged (or final) state of an SCF run.
type SCFResult struct {
	Energy     float64 // total energy (electronic + nuclear repulsion)
	Electronic float64
	Nuclear    float64
	Iterations int
	Converged  bool
	NOcc       int            // doubly-occupied orbital count
	OrbitalE   []float64      // orbital energies, ascending
	C          *linalg.Matrix // MO coefficients (columns)
	D          *linalg.Matrix // final density matrix
	F          *linalg.Matrix // final Fock matrix
	Workload   *FockWorkload  // the task decomposition used for Fock builds
}

// FockBuilder computes a Fock matrix from a density matrix. The default is
// the serial reference implementation; the scheduling study substitutes
// parallel executors with identical semantics.
type FockBuilder func(w *FockWorkload, h, d *linalg.Matrix) *linalg.Matrix

// RunSCF performs a restricted closed-shell Hartree–Fock calculation on
// mol in basis bs. If build is nil the serial reference Fock builder is
// used. A negative MaxIter, BlockSize or Screening is an error, as is a
// charge that leaves no electrons.
func RunSCF(mol *Molecule, bs *BasisSet, opts SCFOptions, build FockBuilder) (*SCFResult, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	opts.setDefaults()
	ne := mol.NumElectrons()
	if ne <= 0 {
		return nil, fmt.Errorf("chem: RHF needs at least one electron pair, got %d electrons", ne)
	}
	if ne%2 != 0 {
		return nil, fmt.Errorf("chem: RHF requires an even electron count, got %d", ne)
	}
	nocc := ne / 2
	if nocc > bs.NBF {
		return nil, fmt.Errorf("chem: %d occupied orbitals exceed %d basis functions", nocc, bs.NBF)
	}

	if r := opts.Resume; r != nil {
		if r.D == nil || r.D.Rows != bs.NBF || r.D.Cols != bs.NBF {
			return nil, fmt.Errorf("chem: resume density shape does not match %d basis functions", bs.NBF)
		}
		if r.Iteration < 1 {
			return nil, fmt.Errorf("chem: resume iteration %d < 1", r.Iteration)
		}
	}

	st, err := scfLoop(mol, bs, restricted(nocc, build), opts)
	return &SCFResult{
		Energy: st.energy, Electronic: st.electronic, Nuclear: st.nuclear,
		Iterations: st.iter, Converged: st.converged, NOcc: nocc,
		OrbitalE: st.orbE[0], C: st.cs[0], D: st.ds[0], F: st.fs[0], Workload: st.w,
	}, err
}

// spinTreatment is everything that tells a restricted run from an
// unrestricted one; the loop knows nothing else about spin.
type spinTreatment struct {
	nocc      []int   // occupied orbitals of each density the loop iterates: {N/2} or {Nα, Nβ}
	occupancy float64 // electrons per occupied orbital: 2 or 1
	// fock returns one Fock matrix per iterated density.
	fock func(w *FockWorkload, h *linalg.Matrix, ds []*linalg.Matrix) []*linalg.Matrix
}

// restricted iterates one density of nocc doubly-occupied orbitals, with
// F = H + J − K/2 from build (nil: the serial reference builder).
func restricted(nocc int, build FockBuilder) spinTreatment {
	if build == nil {
		build = (*FockWorkload).BuildFock
	}
	return spinTreatment{
		nocc:      []int{nocc},
		occupancy: 2,
		fock: func(w *FockWorkload, h *linalg.Matrix, ds []*linalg.Matrix) []*linalg.Matrix {
			return []*linalg.Matrix{build(w, h, ds[0])}
		},
	}
}

// scfState is what the last completed iteration left behind, one entry
// per iterated density; the entry points map it onto their result types.
// Before the first one, all but iter, nuclear, s and w is zero.
type scfState struct {
	iter               int
	energy, electronic float64
	nuclear            float64
	converged          bool
	ds, fs, cs         []*linalg.Matrix // density entering the next iteration, Fock matrix built, MO coefficients
	orbE               [][]float64
	s                  *linalg.Matrix // overlap
	w                  *FockWorkload
}

// scfLoop is the one SCF iteration every calculation in the repository
// runs through; opts arrives with the entry point's defaults applied.
// Without Resume it starts from the core guess, one per density, where a
// later density of different occupation gets H[0,0] += 1e-3 so that open
// shells can separate. Each iteration builds one Fock matrix
// per iterated density Dσ, takes E = ½ Σσ Dσ·(H + Fσ), optionally
// DIIS-extrapolates each Fσ — one subspace per density, each on its own
// residual Fσ·Dσ·S − S·Dσ·Fσ — diagonalizes, damps the new densities from
// iteration 2 on, reports to OnIteration (D is the first density) and
// tests convergence: iter > 1, |ΔE| < ConvEnergy and the RMS change of
// every iterated density below ConvDensity.
//
// The iterated density is D in a restricted run and Dσ in an
// unrestricted one, and Dσ = D/2 for a closed shell, so the same
// ConvDensity is half as strict through RunUHF: (H2O)2/6-31G at damping
// 0.3 takes 32 iterations restricted and 30 unrestricted.
func scfLoop(mol *Molecule, bs *BasisSet, spin spinTreatment, opts SCFOptions) (*scfState, error) {
	s := Overlap(bs)
	h := CoreHamiltonian(bs, mol)
	x := linalg.InvSqrtSym(s, 1e-10)
	w := BuildFockWorkload(bs, opts.Screening, opts.BlockSize)
	enuc := mol.NuclearRepulsion()

	n := len(spin.nocc)
	st := &scfState{
		nuclear: enuc, s: s, w: w,
		ds: make([]*linalg.Matrix, n), fs: make([]*linalg.Matrix, n), cs: make([]*linalg.Matrix, n),
		orbE: make([][]float64, n),
	}
	var ds []*linalg.Matrix
	var ePrev float64
	if r := opts.Resume; r != nil {
		ds = []*linalg.Matrix{r.D.Clone()}
		st.iter, ePrev = r.Iteration, r.Energy
	} else {
		ds = make([]*linalg.Matrix, n)
		for i, nocc := range spin.nocc {
			hGuess := h
			if nocc != spin.nocc[0] {
				hGuess = h.Clone()
				hGuess.Add(0, 0, 1e-3)
			}
			ds[i], _, _ = densityFromFock(hGuess, x, nocc, spin.occupancy)
		}
	}
	var diis []*diisState
	if opts.UseDIIS {
		for range ds {
			diis = append(diis, newDIIS(opts.DIISVectors))
		}
	}

	for iter := st.iter + 1; iter <= opts.MaxIter; iter++ {
		fs := spin.fock(w, h, ds)
		var eElec float64
		for i, d := range ds {
			eElec += electronicEnergy(d, h, fs[i])
		}

		var rms float64
		for i, d := range ds {
			fDiag := fs[i]
			if diis != nil {
				diis[i].push(fs[i], diisError(fs[i], d, s, x))
				if fx := diis[i].extrapolate(); fx != nil {
					fDiag = fx
				}
			}
			dNew, c, orbE := densityFromFock(fDiag, x, spin.nocc[i], spin.occupancy)
			if opts.Damping > 0 && iter > 1 {
				dNew.Scale(1-opts.Damping).AddScaled(opts.Damping, d)
			}
			rms = math.Max(rms, rmsDiff(dNew, d))
			ds[i] = dNew
			st.ds[i], st.fs[i], st.cs[i], st.orbE[i] = dNew, fs[i], c, orbE
		}
		dE := math.Abs(eElec + enuc - ePrev)
		ePrev = eElec + enuc
		st.iter, st.energy, st.electronic = iter, ePrev, eElec

		if opts.OnIteration != nil {
			if err := opts.OnIteration(SCFProgress{
				Iter: iter, Energy: ePrev, DeltaE: dE, RMSD: rms, D: ds[0],
			}); err != nil {
				return st, fmt.Errorf("%w after iteration %d: %w", ErrSCFInterrupted, iter, err)
			}
		}
		if iter > 1 && rms < opts.ConvDensity && dE < opts.ConvEnergy {
			st.converged = true
			break
		}
	}
	return st, nil
}

// densityFromFock diagonalizes F in the orthogonal basis defined by X and
// returns the density D = occupancy · C_occ C_occᵀ over the nocc lowest
// orbitals, the MO coefficient matrix, and the orbital energies.
func densityFromFock(f, x *linalg.Matrix, nocc int, occupancy float64) (*linalg.Matrix, *linalg.Matrix, []float64) {
	fp := linalg.TripleProduct(x, f)
	orbE, cp := linalg.EigenSym(fp)
	c := linalg.MatMul(x, cp)
	n := c.Rows
	d := linalg.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			var v float64
			for k := 0; k < nocc; k++ {
				v += c.At(i, k) * c.At(j, k)
			}
			d.Set(i, j, occupancy*v)
		}
	}
	return d, c, orbE
}

// electronicEnergy returns E_elec = ½ Σ_{μν} D_{μν} (H_{μν} + F_{μν}).
func electronicEnergy(d, h, f *linalg.Matrix) float64 {
	var e float64
	for i := range d.Data {
		e += d.Data[i] * (h.Data[i] + f.Data[i])
	}
	return 0.5 * e
}

func rmsDiff(a, b *linalg.Matrix) float64 {
	var s float64
	for i := range a.Data {
		diff := a.Data[i] - b.Data[i]
		s += diff * diff
	}
	return math.Sqrt(s / float64(len(a.Data)))
}
