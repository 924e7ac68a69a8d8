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

// UHF-DIIS must reach the same fixed point as damped UHF, in no more
// iterations.
func TestUHFDIIS(t *testing.T) {
	const r = 1.2074 * angstrom
	mol := &Molecule{
		Name:  "O2",
		Atoms: []Atom{{Z: 8}, {Z: 8, Pos: Vec3{0, 0, r}}},
	}
	bs := mustBasis(t, "sto-3g", mol)
	damped, err := RunUHF(mol, bs, UHFOptions{Multiplicity: 3, MaxIter: 200})
	if err != nil {
		t.Fatal(err)
	}
	diis, err := RunUHF(mol, bs, UHFOptions{Multiplicity: 3, MaxIter: 200, UseDIIS: true})
	if err != nil {
		t.Fatal(err)
	}
	if !damped.Converged || !diis.Converged {
		t.Fatalf("convergence: damped=%v diis=%v (%d/%d iters)",
			damped.Converged, diis.Converged, damped.Iterations, diis.Iterations)
	}
	if math.Abs(damped.Energy-diis.Energy) > 1e-6 {
		t.Errorf("energies differ: %v vs %v", damped.Energy, diis.Energy)
	}
	if diis.Iterations > damped.Iterations {
		t.Errorf("DIIS took %d iterations vs damped %d", diis.Iterations, damped.Iterations)
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
