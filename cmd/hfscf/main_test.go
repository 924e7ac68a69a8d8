package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"execmodels/internal/core"
)

func TestParseMoleculeVariants(t *testing.T) {
	cases := []struct {
		spec  string
		atoms int
	}{
		{"water", 3},
		{"h2", 2},
		{"waters:2", 6},
		{"alkane:3", 11}, // C3H8
		{"random:5", 5},
	}
	for _, c := range cases {
		mol, err := parseMolecule(c.spec, 1)
		if err != nil {
			t.Fatalf("%s: %v", c.spec, err)
		}
		if len(mol.Atoms) != c.atoms {
			t.Errorf("%s: %d atoms, want %d", c.spec, len(mol.Atoms), c.atoms)
		}
	}
}

func TestParseMoleculeErrors(t *testing.T) {
	for _, spec := range []string{
		"unknown", "waters", "waters:0", "waters:x", "alkane", "random", "xyz", "xyz:/no/such/file.xyz",
	} {
		if _, err := parseMolecule(spec, 1); err == nil {
			t.Errorf("%q: expected error", spec)
		}
	}
}

func TestParseMoleculeXYZ(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "w.xyz")
	content := "3\ntest water\nO 0 0 0\nH 0.76 0 0.59\nH -0.76 0 0.59\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	mol, err := parseMolecule("xyz:"+path, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(mol.Atoms) != 3 || mol.Name != "test water" {
		t.Fatalf("parsed %+v", mol)
	}
}

// The -sched flag's step from a name to builders: serial means chem's own
// sweep (nil builders), every wall-capable policy yields both spin shapes,
// and a name the wall backend cannot run is refused with the names it can.
func TestFockBuilders(t *testing.T) {
	opt := core.WallOptions{Seed: 7, Block: 1}
	if rhf, uhf, err := fockBuilders("serial", 2, opt); rhf != nil || uhf != nil || err != nil {
		t.Errorf("serial: builders (%v, %v), err %v; want nil, nil, nil", rhf != nil, uhf != nil, err)
	}
	for _, sched := range []string{"stealing", "semimatching"} { // a pull and an assignment policy
		if rhf, uhf, err := fockBuilders(sched, 2, opt); rhf == nil || uhf == nil || err != nil {
			t.Errorf("%s: builders (%v, %v), err %v; want both", sched, rhf != nil, uhf != nil, err)
		}
	}
	valid := strings.Join(core.WallSchedulerNames(), ", ")
	for _, sched := range []string{"bogus", "work-stealing-one"} {
		if _, _, err := fockBuilders(sched, 2, opt); err == nil || !strings.Contains(err.Error(), valid) {
			t.Errorf("%s: err = %v, want one listing %s", sched, err, valid)
		}
	}
}

// Non-positive sizes are refused before any work: -block -1 used to
// panic in the workload, -maxiter -1 to print a zero energy, -screen -1
// to turn screening off and -dynblock 0 or -3 to run silently as 1.
func TestCheckSizes(t *testing.T) {
	if err := checkSizes(50, 4, 1, 1e-10); err != nil {
		t.Errorf("defaults refused: %v", err)
	}
	for _, c := range []struct {
		maxIter, block, dynblock int
		screen                   float64
		flag                     string
	}{
		{0, 4, 1, 1e-10, "-maxiter"}, {-1, 4, 1, 1e-10, "-maxiter"},
		{50, 0, 1, 1e-10, "-block"}, {50, -1, 1, 1e-10, "-block"},
		{50, 4, 0, 1e-10, "-dynblock"}, {50, 4, -3, 1e-10, "-dynblock"},
		{50, 4, 1, 0, "-screen"}, {50, 4, 1, -1, "-screen"},
	} {
		if err := checkSizes(c.maxIter, c.block, c.dynblock, c.screen); err == nil || !strings.HasPrefix(err.Error(), c.flag) {
			t.Errorf("checkSizes(%d, %d, %d, %g) = %v, want a %s error", c.maxIter, c.block, c.dynblock, c.screen, err, c.flag)
		}
	}
}

// -multiplicity is a -uhf flag: without -uhf the restricted loop used to
// run a closed-shell singlet and ignore it.
func TestCheckSpin(t *testing.T) {
	for _, c := range []struct {
		uhf  bool
		mult int
		ok   bool
	}{
		{false, 0, true}, {true, 0, true}, {true, 3, true},
		{false, 3, false}, {false, 1, false},
	} {
		err := checkSpin(c.uhf, c.mult)
		if (err == nil) != c.ok {
			t.Errorf("checkSpin(%v, %d) = %v, want ok=%v", c.uhf, c.mult, err, c.ok)
		}
		if err != nil && !strings.HasPrefix(err.Error(), "-multiplicity") {
			t.Errorf("checkSpin(%v, %d) = %v, want a -multiplicity error", c.uhf, c.mult, err)
		}
	}
}
