package chem

import (
	"math"
	"testing"

	"execmodels/internal/linalg"
)

func scfWater(t *testing.T, basis string) (*Molecule, *BasisSet, *SCFResult) {
	t.Helper()
	mol := Water()
	bs := mustBasis(t, basis, mol)
	res, err := RunSCF(mol, bs, SCFOptions{UseDIIS: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("SCF did not converge")
	}
	return mol, bs, res
}

// RHF/STO-3G water dipole moment is ≈ 0.68 a.u. (1.73 D), along the C2v
// symmetry axis.
func TestWaterDipole(t *testing.T) {
	mol, bs, res := scfWater(t, "sto-3g")
	mu := DipoleMoment(mol, bs, res.D)
	// Geometry places the symmetry axis along +z with H on the +z side.
	if math.Abs(mu.X) > 1e-6 || math.Abs(mu.Y) > 1e-6 {
		t.Errorf("dipole off axis: %+v", mu)
	}
	if mu.Z < 0.4 || mu.Z > 0.9 {
		t.Errorf("dipole magnitude %v a.u., want ≈ 0.68", mu.Z)
	}
}

// The dipole matrices must be symmetric and consistent with translating
// the operator: shifting the origin by T changes ⟨μ|r|ν⟩ by T·S.
func TestDipoleMatrixTranslationIdentity(t *testing.T) {
	mol := Water()
	bs := mustBasis(t, "sto-3g", mol)
	mx, my, mz := DipoleMatrices(bs)
	s := Overlap(bs)
	if !mx.IsSymmetric(1e-10) || !my.IsSymmetric(1e-10) || !mz.IsSymmetric(1e-10) {
		t.Fatal("dipole matrices not symmetric")
	}
	// Shift all atoms (and hence shells) by T and recompute: M' = M + T·S.
	const T = 1.7
	shifted := &Molecule{Name: "shifted"}
	for _, a := range mol.Atoms {
		shifted.Atoms = append(shifted.Atoms, Atom{Z: a.Z, Pos: a.Pos.Add(Vec3{T, 0, 0})})
	}
	bs2 := mustBasis(t, "sto-3g", shifted)
	mx2, _, _ := DipoleMatrices(bs2)
	want := mx.Clone()
	want.AddScaled(T, s)
	if diff := mx2.MaxAbsDiff(want); diff > 1e-9 {
		t.Errorf("translation identity violated by %v", diff)
	}
}

// Mulliken charges must sum to the total molecular charge (zero) and put
// negative charge on oxygen.
func TestMullikenCharges(t *testing.T) {
	mol, bs, res := scfWater(t, "sto-3g")
	s := Overlap(bs)
	q := MullikenCharges(mol, bs, res.D, s)
	var total float64
	for _, v := range q {
		total += v
	}
	if math.Abs(total) > 1e-8 {
		t.Errorf("charges sum to %v, want 0", total)
	}
	if q[0] >= 0 {
		t.Errorf("oxygen charge %v, want negative", q[0])
	}
	if q[1] <= 0 || q[2] <= 0 {
		t.Errorf("hydrogen charges %v %v, want positive", q[1], q[2])
	}
}

// MP2 correlation energy for water/STO-3G is ≈ -0.049 hartree; it must be
// strictly negative and small.
func TestMP2Water(t *testing.T) {
	_, bs, res := scfWater(t, "sto-3g")
	e2, err := MP2Energy(bs, res)
	if err != nil {
		t.Fatal(err)
	}
	if e2 > -0.03 || e2 < -0.07 {
		t.Errorf("E(MP2) = %v, want ≈ -0.049", e2)
	}
}

// MP2 on H2/STO-3G: the minimal two-orbital case, E(2) ≈ -0.013 hartree.
func TestMP2H2(t *testing.T) {
	mol := H2(1.4)
	bs := mustBasis(t, "sto-3g", mol)
	res, err := RunSCF(mol, bs, SCFOptions{UseDIIS: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := MP2Energy(bs, res)
	if err != nil {
		t.Fatal(err)
	}
	if e2 > -0.005 || e2 < -0.03 {
		t.Errorf("E(MP2) = %v, want ≈ -0.013", e2)
	}
}

// Freezing the oxygen 1s core removes only a small part of the water
// correlation energy: |E_fc| < |E_full|, both negative, difference small.
func TestMP2FrozenCore(t *testing.T) {
	_, bs, res := scfWater(t, "sto-3g")
	full, err := MP2Energy(bs, res)
	if err != nil {
		t.Fatal(err)
	}
	fc, err := MP2EnergyFrozen(bs, res, 1)
	if err != nil {
		t.Fatal(err)
	}
	if fc >= 0 || fc <= full {
		t.Errorf("frozen-core %v not in (full %v, 0)", fc, full)
	}
	if full-fc < -0.01 || full-fc > 0 {
		t.Errorf("core correlation %v implausibly large", full-fc)
	}
	// Bad frozen counts are rejected.
	if _, err := MP2EnergyFrozen(bs, res, -1); err == nil {
		t.Error("negative frozen count accepted")
	}
	if _, err := MP2EnergyFrozen(bs, res, res.NOcc); err == nil {
		t.Error("freezing everything accepted")
	}
}

func TestMP2RequiresConvergence(t *testing.T) {
	mol := Water()
	bs := mustBasis(t, "sto-3g", mol)
	res := &SCFResult{Converged: false}
	if _, err := MP2Energy(bs, res); err == nil {
		t.Fatal("expected error on unconverged reference")
	}
}

func TestMP2RequiresVirtuals(t *testing.T) {
	// H2 in a minimal basis where nocc = 1 < nbf = 2 works; fake a filled
	// basis to trigger the guard.
	bs := mustBasis(t, "sto-3g", H2(1.4))
	res := &SCFResult{Converged: true, NOcc: bs.NBF}
	if _, err := MP2Energy(bs, res); err == nil {
		t.Fatal("expected error with no virtual orbitals")
	}
}

// DIIS must reach the same fixed point as plain iteration, in no more
// iterations.
func TestDIISMatchesPlainSCF(t *testing.T) {
	mol := Water()
	bs := mustBasis(t, "sto-3g", mol)
	plain, err := RunSCF(mol, bs, SCFOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	diis, err := RunSCF(mol, bs, SCFOptions{UseDIIS: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !plain.Converged || !diis.Converged {
		t.Fatal("convergence failure")
	}
	if math.Abs(plain.Energy-diis.Energy) > 1e-7 {
		t.Errorf("DIIS energy %v vs plain %v", diis.Energy, plain.Energy)
	}
	if diis.Iterations > plain.Iterations {
		t.Errorf("DIIS took %d iterations vs plain %d", diis.Iterations, plain.Iterations)
	}
}

// The polarized 6-31G* basis must build, include d shells, and lower the
// water energy below 6-31G (variational principle with a larger basis).
func TestSixThreeOneStar(t *testing.T) {
	mol := Water()
	bsPlain := mustBasis(t, "6-31g", mol)
	bsStar := mustBasis(t, "6-31g*", mol)
	if bsStar.NBF != bsPlain.NBF+6 {
		t.Fatalf("6-31g* NBF = %d, want %d+6", bsStar.NBF, bsPlain.NBF)
	}
	var hasD bool
	for _, sh := range bsStar.Shells {
		if sh.L == 2 {
			hasD = true
		}
	}
	if !hasD {
		t.Fatal("no d shell in 6-31g*")
	}
	plain, err := RunSCF(mol, bsPlain, SCFOptions{UseDIIS: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	star, err := RunSCF(mol, bsStar, SCFOptions{UseDIIS: true, MaxIter: 80}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !plain.Converged || !star.Converged {
		t.Fatalf("convergence: 6-31g %v, 6-31g* %v", plain.Converged, star.Converged)
	}
	if star.Energy >= plain.Energy {
		t.Errorf("6-31g* energy %v not below 6-31g %v", star.Energy, plain.Energy)
	}
	// 6-31G water ≈ -75.98; 6-31G* ≈ -76.01 hartree.
	if plain.Energy > -75.8 || plain.Energy < -76.2 {
		t.Errorf("E(6-31g) = %v implausible", plain.Energy)
	}
	if star.Energy > -75.9 || star.Energy < -76.2 {
		t.Errorf("E(6-31g*) = %v implausible", star.Energy)
	}
}

// d-shell integrals must satisfy the same Fock-build oracle as s/p.
func TestFockOracleWithDShells(t *testing.T) {
	// A single oxygen atom in 6-31g*: small enough for the O(N⁴) oracle.
	mol := &Molecule{Name: "O", Atoms: []Atom{{Z: 8}}}
	bs := mustBasis(t, "6-31g*", mol)
	eri := FullERITensor(bs)
	h := CoreHamiltonian(bs, mol)
	s := Overlap(bs)
	x := linalg.InvSqrtSym(s, 1e-10)
	d, _, _ := densityFromFock(h, x, 4, 2)
	w := BuildFockWorkload(bs, 1e-14, 3)
	got := w.BuildFock(h, d)
	want := referenceFock(bs, eri, h, d)
	if diff := got.MaxAbsDiff(want); diff > 1e-8 {
		t.Errorf("d-shell Fock mismatch %v", diff)
	}
}
