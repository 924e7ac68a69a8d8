package chem

import (
	"fmt"
	"slices"
	"testing"
)

// The bond graph splits a water cluster into its waters, each (O, H, H),
// and leaves a single molecule whole.
func TestFragments(t *testing.T) {
	for z, sym := range symbols {
		if !(covalentRadius[z] > 0) {
			t.Errorf("%s has no covalent radius", sym)
		}
	}
	for _, n := range []int{1, 2, 4, 8} {
		for _, seed := range []int64{1, 7} {
			t.Run(fmt.Sprintf("waters%d/seed%d", n, seed), func(t *testing.T) {
				mol := WaterCluster(n, seed)
				frags := fragments(mol)
				if len(frags) != n {
					t.Fatalf("%d fragments, want %d", len(frags), n)
				}
				for _, f := range frags {
					var zs []int
					for _, a := range f {
						zs = append(zs, mol.Atoms[a].Z)
					}
					if !slices.Equal(zs, []int{8, 1, 1}) {
						t.Errorf("fragment of atoms %v has atomic numbers %v, want [8 1 1]", f, zs)
					}
				}
			})
		}
	}
	for _, mol := range []*Molecule{Water(), H2(1.4), Alkane(3)} {
		if frags := fragments(mol); len(frags) != 1 {
			t.Errorf("%s: %d fragments, want 1", mol.Name, len(frags))
		}
	}
}

// Where the fragment guess does not apply, fragmentGuess gives the core
// guess back before any fragment SCF: fragmentMolecules refuses the
// molecule, and the fragment runs iterate only over what it returns.
func TestFragmentGuessFallsBack(t *testing.T) {
	charged := WaterCluster(2, 7)
	charged.Charge = 2
	radicals := Water()
	radicals.Atoms = append(radicals.Atoms,
		Atom{Z: 1, Pos: Vec3{X: 10}}, Atom{Z: 1, Pos: Vec3{X: -10}})
	for _, tc := range []struct {
		name string
		mol  *Molecule
	}{
		{"one fragment", Water()},
		{"charged", charged},
		{"odd-electron fragments", radicals},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if mols, _ := fragmentMolecules(tc.mol); mols != nil {
				t.Fatalf("fragmentMolecules split it into %d molecules", len(mols))
			}
			opts := SCFOptions{UseDIIS: true}
			opts.setDefaults()
			if d := fragmentGuess(tc.mol, mustBasis(t, "sto-3g", tc.mol), opts); d != nil {
				t.Error("fragmentGuess returned a density")
			}
		})
	}
	if n := len(fragments(radicals)); n != 3 {
		t.Errorf("water and two distant H atoms: %d fragments, want 3", n)
	}
}
