package chem

import (
	"math"
	"testing"

	"execmodels/internal/linalg"
)

func linalg2(s *linalg.Matrix) *linalg.Matrix { return linalg.InvSqrtSym(s, 1e-10) }

func newMat(n int) *linalg.Matrix { return linalg.NewMatrix(n, n) }

// A single hydrogen atom (doublet): UHF/STO-3G energy is the STO-3G 1s
// expectation value, -0.46658 hartree.
func TestUHFHydrogenAtom(t *testing.T) {
	mol := &Molecule{Name: "H", Atoms: []Atom{{Z: 1}}}
	bs := mustBasis(t, "sto-3g", mol)
	res, err := RunUHF(mol, bs, UHFOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("not converged after %d iterations", res.Iterations)
	}
	if math.Abs(res.Energy-(-0.46658)) > 1e-4 {
		t.Errorf("E(H) = %.6f, want -0.46658", res.Energy)
	}
	if res.NAlpha != 1 || res.NBeta != 0 {
		t.Errorf("occupation %dα/%dβ", res.NAlpha, res.NBeta)
	}
	// A single electron cannot be spin-contaminated: ⟨S²⟩ = 0.75.
	if math.Abs(res.S2-0.75) > 1e-8 {
		t.Errorf("⟨S²⟩ = %v, want 0.75", res.S2)
	}
}

// For a closed-shell molecule, UHF must reproduce the RHF energy.
func TestUHFMatchesRHFClosedShell(t *testing.T) {
	mol := Water()
	bs := mustBasis(t, "sto-3g", mol)
	rhf, err := RunSCF(mol, bs, SCFOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	uhf, err := RunUHF(mol, bs, UHFOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !uhf.Converged {
		t.Fatalf("UHF not converged in %d iterations", uhf.Iterations)
	}
	if math.Abs(uhf.Energy-rhf.Energy) > 1e-6 {
		t.Errorf("UHF %v vs RHF %v", uhf.Energy, rhf.Energy)
	}
	// Closed shell: no contamination.
	if math.Abs(uhf.S2) > 1e-6 {
		t.Errorf("⟨S²⟩ = %v, want 0", uhf.S2)
	}
}

// Triplet O2: a classic UHF case. The energy must sit in the right
// ballpark (-147.6 ± 0.3 hartree for UHF/STO-3G) and the α/β split must
// be 9/7.
func TestUHFTripletO2(t *testing.T) {
	const r = 1.2074 * angstrom
	mol := &Molecule{
		Name:  "O2",
		Atoms: []Atom{{Z: 8}, {Z: 8, Pos: Vec3{0, 0, r}}},
	}
	bs := mustBasis(t, "sto-3g", mol)
	res, err := RunUHF(mol, bs, UHFOptions{Multiplicity: 3, MaxIter: 200})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("not converged in %d iterations", res.Iterations)
	}
	if res.NAlpha != 9 || res.NBeta != 7 {
		t.Fatalf("occupation %dα/%dβ, want 9/7", res.NAlpha, res.NBeta)
	}
	if res.Energy > -147.3 || res.Energy < -147.9 {
		t.Errorf("E(O2,triplet) = %.5f, want ≈ -147.6", res.Energy)
	}
	// Triplet: ⟨S²⟩ ≈ 2 (slight contamination allowed).
	if res.S2 < 1.99 || res.S2 > 2.2 {
		t.Errorf("⟨S²⟩ = %v, want ≈ 2.0", res.S2)
	}
}

// The triplet must lie below the singlet for O2 (Hund's rule at the UHF
// level).
func TestUHFO2HundsRule(t *testing.T) {
	const r = 1.2074 * angstrom
	mol := &Molecule{
		Name:  "O2",
		Atoms: []Atom{{Z: 8}, {Z: 8, Pos: Vec3{0, 0, r}}},
	}
	bs := mustBasis(t, "sto-3g", mol)
	trip, err := RunUHF(mol, bs, UHFOptions{Multiplicity: 3, MaxIter: 200})
	if err != nil {
		t.Fatal(err)
	}
	sing, err := RunUHF(mol, bs, UHFOptions{Multiplicity: 1, MaxIter: 200})
	if err != nil {
		t.Fatal(err)
	}
	if !trip.Converged || !sing.Converged {
		t.Skip("one of the states did not converge; Hund comparison skipped")
	}
	if trip.Energy >= sing.Energy {
		t.Errorf("triplet %v not below singlet %v", trip.Energy, sing.Energy)
	}
}

// RunUHF's damped start handed off to DIIS must reach the same fixed
// point as damping alone, which scfLoop still runs with DIIS off, in no
// more iterations.
func TestUHFDIIS(t *testing.T) {
	const r = 1.2074 * angstrom
	mol := &Molecule{
		Name:  "O2",
		Atoms: []Atom{{Z: 8}, {Z: 8, Pos: Vec3{0, 0, r}}},
	}
	bs := mustBasis(t, "sto-3g", mol)
	opts := UHFOptions{Multiplicity: 3, MaxIter: 200}
	lo := opts.loopOptions()
	lo.UseDIIS = false
	damped, err := scfLoop(mol, bs, unrestricted(9, 7, nil), lo, nil)
	if err != nil {
		t.Fatal(err)
	}
	diis, err := RunUHF(mol, bs, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !damped.converged || !diis.Converged {
		t.Fatalf("convergence: damped=%v diis=%v (%d/%d iters)",
			damped.converged, diis.Converged, damped.iter, diis.Iterations)
	}
	if math.Abs(damped.energy-diis.Energy) > 1e-6 {
		t.Errorf("energies differ: %v vs %v", damped.energy, diis.Energy)
	}
	if diis.Iterations > damped.iter {
		t.Errorf("DIIS took %d iterations vs damped %d", diis.Iterations, damped.iter)
	}
}

// TestUHFDefaultReachesLowestState guards the damped start: with default
// options every case converges, and where damping alone converges (all
// but (H2O)2⁺, which it does not in 100 iterations) to the same state.
// Extrapolating from iteration 2 instead settles water⁺/6-31G on a state
// 0.072 hartree higher (E = −75.5085192498, ⟨S²⟩ 0.7518).
func TestUHFDefaultReachesLowestState(t *testing.T) {
	const r = 1.2074 * angstrom
	o2 := &Molecule{Name: "O2", Atoms: []Atom{{Z: 8}, {Z: 8, Pos: Vec3{0, 0, r}}}}
	cation := Water()
	cation.Charge = 1
	dimer := WaterCluster(2, 7)
	dimer.Charge = 1
	for _, tc := range []struct {
		name   string
		mol    *Molecule
		basis  string
		mult   int
		energy float64
		s2     float64
	}{
		{"water+/sto-3g", cation, "sto-3g", 0, -74.6559067222, 0.7552},
		{"water+/6-31g", cation, "6-31g", 0, -75.5805510531, 0.7553},
		{"waters2+/sto-3g", dimer, "sto-3g", 0, -149.6332317407, 0.7552},
		{"o2-triplet/sto-3g", o2, "sto-3g", 3, -147.3784905236, 2.0127},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := RunUHF(tc.mol, mustBasis(t, tc.basis, tc.mol), UHFOptions{Multiplicity: tc.mult})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Converged {
				t.Fatalf("not converged in %d iterations", res.Iterations)
			}
			if math.Abs(res.Energy-tc.energy) > 1e-9 {
				t.Errorf("E = %.10f, want %.10f", res.Energy, tc.energy)
			}
			if math.Abs(res.S2-tc.s2) > 1e-4 {
				t.Errorf("⟨S²⟩ = %.6f, want %.4f", res.S2, tc.s2)
			}
		})
	}
}

func TestUHFBadMultiplicity(t *testing.T) {
	mol := Water() // 10 electrons: even
	bs := mustBasis(t, "sto-3g", mol)
	if _, err := RunUHF(mol, bs, UHFOptions{Multiplicity: 2}); err == nil {
		t.Fatal("expected parity error")
	}
	if _, err := RunUHF(mol, bs, UHFOptions{Multiplicity: -3}); err == nil {
		t.Fatal("expected negative-multiplicity error")
	}
}

func TestUHFDefaultMultiplicity(t *testing.T) {
	mol := &Molecule{Name: "OH", Atoms: []Atom{
		{Z: 8}, {Z: 1, Pos: Vec3{0, 0, 0.97 * angstrom}},
	}} // 9 electrons → doublet
	bs := mustBasis(t, "sto-3g", mol)
	res, err := RunUHF(mol, bs, UHFOptions{MaxIter: 150})
	if err != nil {
		t.Fatal(err)
	}
	if res.NAlpha-res.NBeta != 1 {
		t.Fatalf("default multiplicity gave %dα/%dβ", res.NAlpha, res.NBeta)
	}
}

// The spin-resolved task execution must agree with the restricted path
// when both spins share a density.
func TestExecuteTaskSpinConsistency(t *testing.T) {
	mol := Water()
	bs := mustBasis(t, "sto-3g", mol)
	w := BuildFockWorkload(bs, 1e-12, 3)
	n := bs.NBF
	s := Overlap(bs)
	h := CoreHamiltonian(bs, mol)
	x := linalg2(s)
	dHalf, _, _ := densityFromFock(h, x, mol.NumElectrons()/2, 1)
	dTot := dHalf.Clone()
	dTot.AddScaled(1, dHalf)

	jR := newMat(n)
	kR := newMat(n)
	jU := newMat(n)
	kA := newMat(n)
	kB := newMat(n)
	scratch := w.NewScratch()
	for i := range w.Tasks {
		w.ExecuteTaskScratch(&w.Tasks[i], dTot, jR, kR, scratch)
		w.ExecuteTaskSpinScratch(&w.Tasks[i], dTot, dHalf, dHalf, jU, kA, kB, scratch)
	}
	if jR.MaxAbsDiff(jU) > 1e-10 {
		t.Error("J differs between restricted and spin paths")
	}
	// K from the total density is twice K from either spin half.
	kHalf := kA.Clone().Scale(2)
	if kR.MaxAbsDiff(kHalf) > 1e-10 {
		t.Error("K[Dtot] != 2·K[Dα]")
	}
	if kA.MaxAbsDiff(kB) > 1e-12 {
		t.Error("equal densities gave different Ks")
	}
}
