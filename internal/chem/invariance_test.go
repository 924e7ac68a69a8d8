package chem

import (
	"math"
	"math/rand"
	"testing"
)

// transformMolecule applies a rigid rotation (ZYZ Euler angles) plus a
// translation to a copy of the molecule.
func transformMolecule(mol *Molecule, a, b, c float64, t Vec3) *Molecule {
	ca, sa := math.Cos(a), math.Sin(a)
	cb, sb := math.Cos(b), math.Sin(b)
	cc, sc := math.Cos(c), math.Sin(c)
	r := [3][3]float64{
		{ca*cb*cc - sa*sc, -ca*cb*sc - sa*cc, ca * sb},
		{sa*cb*cc + ca*sc, -sa*cb*sc + ca*cc, sa * sb},
		{-sb * cc, sb * sc, cb},
	}
	out := &Molecule{Name: mol.Name + "-moved", Charge: mol.Charge}
	for _, at := range mol.Atoms {
		p := at.Pos
		out.Atoms = append(out.Atoms, Atom{Z: at.Z, Pos: Vec3{
			X: r[0][0]*p.X + r[0][1]*p.Y + r[0][2]*p.Z + t.X,
			Y: r[1][0]*p.X + r[1][1]*p.Y + r[1][2]*p.Z + t.Y,
			Z: r[2][0]*p.X + r[2][1]*p.Y + r[2][2]*p.Z + t.Z,
		}})
	}
	return out
}

// The total RHF energy is invariant under rigid rotations and
// translations of the molecule — a stringent end-to-end test of every
// integral class at once (any error in the Hermite recurrences,
// R-tensors, or normalization shows up here).
func TestSCFEnergyRigidMotionInvariant(t *testing.T) {
	mol := Water()
	bs := mustBasis(t, "sto-3g", mol)
	ref, err := RunSCF(mol, bs, SCFOptions{UseDIIS: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 3; trial++ {
		moved := transformMolecule(mol,
			rng.Float64()*2*math.Pi, rng.Float64()*math.Pi, rng.Float64()*2*math.Pi,
			Vec3{rng.NormFloat64() * 3, rng.NormFloat64() * 3, rng.NormFloat64() * 3})
		mbs := mustBasis(t, "sto-3g", moved)
		res, err := RunSCF(moved, mbs, SCFOptions{UseDIIS: true}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged {
			t.Fatalf("trial %d: not converged", trial)
		}
		if diff := math.Abs(res.Energy - ref.Energy); diff > 1e-8 {
			t.Errorf("trial %d: energy changed by %v under rigid motion", trial, diff)
		}
	}
}

// The same invariance must hold with d functions in play (6-31G*), which
// exercises the higher-angular-momentum Hermite recursion branches.
func TestSCFEnergyRotationInvariantWithDShells(t *testing.T) {
	mol := Water()
	bs := mustBasis(t, "6-31g*", mol)
	ref, err := RunSCF(mol, bs, SCFOptions{UseDIIS: true, MaxIter: 80}, nil)
	if err != nil {
		t.Fatal(err)
	}
	moved := transformMolecule(mol, 0.7, 1.1, 2.3, Vec3{1.5, -2.0, 0.5})
	mbs := mustBasis(t, "6-31g*", moved)
	res, err := RunSCF(moved, mbs, SCFOptions{UseDIIS: true, MaxIter: 80}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !ref.Converged || !res.Converged {
		t.Fatal("convergence failure")
	}
	if diff := math.Abs(res.Energy - ref.Energy); diff > 1e-7 {
		t.Errorf("d-shell energy changed by %v under rigid motion", diff)
	}
}
