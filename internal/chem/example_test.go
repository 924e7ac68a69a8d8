package chem_test

import (
	"fmt"

	"execmodels/internal/chem"
)

// A complete restricted Hartree–Fock calculation in a few lines: build a
// molecule, pick a basis, run SCF.
func ExampleRunSCF() {
	mol := chem.H2(1.4) // bond length in bohr
	bs, err := chem.NewBasis("sto-3g", mol)
	if err != nil {
		panic(err)
	}
	res, err := chem.RunSCF(mol, bs, chem.SCFOptions{UseDIIS: true}, nil)
	if err != nil {
		panic(err)
	}
	fmt.Printf("converged: %v\n", res.Converged)
	fmt.Printf("E = %.4f hartree\n", res.Energy)
	// Output:
	// converged: true
	// E = -1.1167 hartree
}

// The scheduling study's workload: screened, blocked shell-pair tasks
// whose costs vary by orders of magnitude.
func ExampleBuildFockWorkload() {
	mol := chem.Water()
	bs, err := chem.NewBasis("sto-3g", mol)
	if err != nil {
		panic(err)
	}
	w := chem.BuildFockWorkload(bs, 1e-10, 2)
	fmt.Println("tasks:", len(w.Tasks))
	fmt.Println("irregular:", w.CostImbalance() > 1.5)
	// Output:
	// tasks: 5
	// irregular: true
}

// The unrestricted entry point on an open shell: triplet dioxygen at its
// experimental bond length, through the same screened, blocked integral
// tasks the scheduling study uses. ⟨S²⟩ exceeds the exact triplet's 2.0
// by the spin contamination UHF admits.
func ExampleRunUHF() {
	const bohrPerAngstrom = 1.8897259886
	o2 := &chem.Molecule{
		Name: "O2",
		Atoms: []chem.Atom{
			{Z: 8},
			{Z: 8, Pos: chem.Vec3{Z: 1.2074 * bohrPerAngstrom}},
		},
	}
	bs, err := chem.NewBasis("sto-3g", o2)
	if err != nil {
		panic(err)
	}
	res, err := chem.RunUHF(o2, bs, chem.UHFOptions{Multiplicity: 3, MaxIter: 200})
	if err != nil {
		panic(err)
	}
	fmt.Printf("converged: %v in %d iterations\n", res.Converged, res.Iterations)
	fmt.Printf("occupation: %dα / %dβ\n", res.NAlpha, res.NBeta)
	fmt.Printf("E = %.6f hartree\n", res.Energy)
	fmt.Printf("<S²> = %.4f\n", res.S2)
	// Output:
	// converged: true in 15 iterations
	// occupation: 9α / 7β
	// E = -147.378491 hartree
	// <S²> = 2.0127
}
