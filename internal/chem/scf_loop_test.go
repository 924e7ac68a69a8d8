package chem

import (
	"math"
	"testing"

	"execmodels/internal/linalg"
)

// loopTrace records what scfLoop does in one run: the densities entering
// every Fock build and the total energy after every iteration.
type loopTrace struct {
	ds [][]*linalg.Matrix
	e  []float64
}

// traceLoop runs scfLoop with both of its hooks tapped — the treatment's
// densities→Fock function and OnIteration.
func traceLoop(mol *Molecule, bs *BasisSet, spin spinTreatment, opts SCFOptions) (*scfState, *loopTrace) {
	tr := &loopTrace{}
	fock := spin.fock
	spin.fock = func(w *FockWorkload, h *linalg.Matrix, ds []*linalg.Matrix) []*linalg.Matrix {
		tr.ds = append(tr.ds, append([]*linalg.Matrix(nil), ds...))
		return fock(w, h, ds)
	}
	opts.OnIteration = func(p SCFProgress) error {
		tr.e = append(tr.e, p.Energy)
		return nil
	}
	st, _ := scfLoop(mol, bs, spin, opts)
	return st, tr
}

// TestSCFLoopSpinTreatmentsAgree drives a closed-shell singlet through
// scfLoop under both spin treatments. The two are the same iteration —
// equal energies, D = Dα + Dβ and Dα = Dβ at every iteration both reach —
// and differ only in when they stop: ConvDensity bounds the change of D
// in the restricted run and of Dσ = D/2 in the unrestricted one, which
// therefore converges an iteration or two earlier when damping makes the
// density the last criterion to be met. With DIIS the counts coincide.
func TestSCFLoopSpinTreatmentsAgree(t *testing.T) {
	for _, tc := range []struct {
		name         string
		mol          *Molecule
		basis        string
		useDIIS      bool
		wantR, wantU int // iterations, restricted and unrestricted
	}{
		{"water/sto-3g/damped", Water(), "sto-3g", false, 30, 29},
		{"water/sto-3g/diis", Water(), "sto-3g", true, 8, 8},
		{"waters2/6-31g/damped", WaterCluster(2, 7), "6-31g", false, 32, 30},
		{"waters2/6-31g/diis", WaterCluster(2, 7), "6-31g", true, 14, 14},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bs := mustBasis(t, tc.basis, tc.mol)
			nocc := tc.mol.NumElectrons() / 2

			ro := SCFOptions{UseDIIS: tc.useDIIS}
			if !tc.useDIIS {
				ro.Damping = 0.3 // RunUHF's default, so both damp alike
			}
			ro.setDefaults()
			r, rt := traceLoop(tc.mol, bs, restricted(nocc, nil), ro)
			u, ut := traceLoop(tc.mol, bs, unrestricted(nocc, nocc, nil), UHFOptions{UseDIIS: tc.useDIIS}.loopOptions())

			if !r.converged || !u.converged {
				t.Fatalf("converged: restricted %v, unrestricted %v", r.converged, u.converged)
			}
			if r.iter != tc.wantR || u.iter != tc.wantU {
				t.Errorf("iterations %d restricted / %d unrestricted, want %d / %d", r.iter, u.iter, tc.wantR, tc.wantU)
			}
			for k := 0; k < len(rt.e) && k < len(ut.e); k++ {
				if diff := math.Abs(rt.e[k] - ut.e[k]); diff > 1e-10 {
					t.Errorf("iteration %d: energies differ by %.3g", k+1, diff)
				}
				d, dA, dB := rt.ds[k][0], ut.ds[k][0], ut.ds[k][1]
				if diff := d.MaxAbsDiff(dA.Clone().AddScaled(1, dB)); diff > 1e-10 {
					t.Errorf("iteration %d: D differs from Dα + Dβ by %.3g", k+1, diff)
				}
				if diff := dA.MaxAbsDiff(dB); diff > 1e-10 {
					t.Errorf("iteration %d: Dα differs from Dβ by %.3g", k+1, diff)
				}
			}
		})
	}
}

// TestSCFPinnedRuns pins iteration counts and energies the merge of the
// two SCF loops must not move: the benchmark's RHF and UHF workloads and
// the README's open-shell example, the ionized water doublet.
func TestSCFPinnedRuns(t *testing.T) {
	cation := Water()
	cation.Charge = 1
	for _, tc := range []struct {
		name   string
		mol    *Molecule
		basis  string
		run    func(mol *Molecule, bs *BasisSet) (energy float64, iters int, converged bool, s2 float64)
		energy float64
		iters  int
		s2     float64
	}{
		{"rhf-diis/waters4/sto-3g", WaterCluster(4, 7), "sto-3g", pinnedRHF(SCFOptions{UseDIIS: true}), -299.8503983135, 11, 0},
		{"uhf/waters2/6-31g", WaterCluster(2, 7), "6-31g", pinnedUHF(UHFOptions{MaxIter: 50}), -151.9653353040, 30, 0},
		{"uhf/water+/sto-3g", cation, "sto-3g", pinnedUHF(UHFOptions{}), -74.6559067222, 42, 0.7552},
		{"uhf-diis/water+/sto-3g", cation, "sto-3g", pinnedUHF(UHFOptions{UseDIIS: true}), -74.6559067222, 35, 0.7552},
	} {
		t.Run(tc.name, func(t *testing.T) {
			energy, iters, converged, s2 := tc.run(tc.mol, mustBasis(t, tc.basis, tc.mol))
			if !converged || iters != tc.iters {
				t.Errorf("converged %v in %d iterations, want %d", converged, iters, tc.iters)
			}
			if math.Abs(energy-tc.energy) > 1e-9 {
				t.Errorf("E = %.10f, want %.10f", energy, tc.energy)
			}
			if math.Abs(s2-tc.s2) > 1e-4 {
				t.Errorf("⟨S²⟩ = %.6f, want %.4f", s2, tc.s2)
			}
		})
	}
}

func pinnedRHF(opts SCFOptions) func(*Molecule, *BasisSet) (float64, int, bool, float64) {
	return func(mol *Molecule, bs *BasisSet) (float64, int, bool, float64) {
		res, err := RunSCF(mol, bs, opts, nil)
		if err != nil {
			panic(err)
		}
		return res.Energy, res.Iterations, res.Converged, 0
	}
}

func pinnedUHF(opts UHFOptions) func(*Molecule, *BasisSet) (float64, int, bool, float64) {
	return func(mol *Molecule, bs *BasisSet) (float64, int, bool, float64) {
		res, err := RunUHF(mol, bs, opts)
		if err != nil {
			panic(err)
		}
		return res.Energy, res.Iterations, res.Converged, res.S2
	}
}

// A custom UHFFockBuilder must be invoked once per iteration, and RunUHF
// must then not set up its own serial sweep: the run with a builder
// allocates at least one scratch arena less than the run without.
func TestUHFCustomBuilder(t *testing.T) {
	mol := H2(1.4)
	bs := mustBasis(t, "sto-3g", mol)
	var scratch *ERIScratch // the builder's own arena, allocated outside the measured runs
	calls := 0
	builder := func(w *FockWorkload, dTot, dA, dB *linalg.Matrix) (j, kA, kB *linalg.Matrix) {
		calls++
		if scratch == nil {
			scratch = w.NewScratch()
		}
		j, kA, kB = newMat(bs.NBF), newMat(bs.NBF), newMat(bs.NBF)
		for i := range w.Tasks {
			w.ExecuteTaskSpinScratch(&w.Tasks[i], dTot, dA, dB, j, kA, kB, scratch)
		}
		return j, kA, kB
	}
	res, err := RunUHF(mol, bs, UHFOptions{Builder: builder})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || calls != res.Iterations {
		t.Errorf("converged %v; builder called %d times over %d iterations", res.Converged, calls, res.Iterations)
	}

	arena := testing.AllocsPerRun(5, func() { res.Workload.NewScratch() })
	given := testing.AllocsPerRun(5, func() { RunUHF(mol, bs, UHFOptions{Builder: builder}) })
	serial := testing.AllocsPerRun(5, func() { RunUHF(mol, bs, UHFOptions{}) })
	if given+arena > serial {
		t.Errorf("%v allocations with a builder, %v without, %v per arena: the run with a builder still allocates one", given, serial, arena)
	}
}
