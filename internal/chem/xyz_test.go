package chem

import (
	"math"
	"strings"
	"testing"
)

const waterXYZ = `3
water molecule
O  0.000000  0.000000  0.000000
H  0.757000  0.000000  0.587000
H -0.757000  0.000000  0.587000
`

func TestParseXYZ(t *testing.T) {
	mol, err := ParseXYZ(strings.NewReader(waterXYZ))
	if err != nil {
		t.Fatal(err)
	}
	if mol.Name != "water molecule" {
		t.Errorf("name %q", mol.Name)
	}
	if len(mol.Atoms) != 3 || mol.Atoms[0].Z != 8 || mol.Atoms[1].Z != 1 {
		t.Fatalf("atoms %+v", mol.Atoms)
	}
	// 0.757 Å in bohr.
	want := 0.757 * angstrom
	if math.Abs(mol.Atoms[1].Pos.X-want) > 1e-10 {
		t.Errorf("x = %v, want %v", mol.Atoms[1].Pos.X, want)
	}
}

func TestParseXYZNumericElement(t *testing.T) {
	mol, err := ParseXYZ(strings.NewReader("1\n\n8 0 0 0\n"))
	if err != nil {
		t.Fatal(err)
	}
	if mol.Atoms[0].Z != 8 {
		t.Fatalf("Z = %d", mol.Atoms[0].Z)
	}
	if mol.Name != "xyz" {
		t.Fatalf("empty comment should default name, got %q", mol.Name)
	}
}

func TestParseXYZErrors(t *testing.T) {
	cases := []string{
		"",                       // empty
		"x\ncomment\n",           // bad count
		"2\ncomment\nH 0 0 0\n",  // truncated
		"1\ncomment\nH 0 0\n",    // short line
		"1\ncomment\nQq 0 0 0\n", // unknown element
		"1\ncomment\nH a b c\n",  // bad coordinate
	}
	for i, c := range cases {
		if _, err := ParseXYZ(strings.NewReader(c)); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

// A parsed geometry must be usable end to end.
func TestParseXYZThenSCF(t *testing.T) {
	mol, err := ParseXYZ(strings.NewReader(waterXYZ))
	if err != nil {
		t.Fatal(err)
	}
	bs := mustBasis(t, "sto-3g", mol)
	res, err := RunSCF(mol, bs, SCFOptions{UseDIIS: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || res.Energy > -74.8 || res.Energy < -75.1 {
		t.Fatalf("E = %v converged=%v", res.Energy, res.Converged)
	}
}
