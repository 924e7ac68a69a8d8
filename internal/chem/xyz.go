package chem

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// ParseXYZ reads a molecule in the standard XYZ format:
//
//	<atom count>
//	<comment line>
//	<symbol> <x> <y> <z>     (coordinates in ångström)
//	...
//
// Coordinates are converted to bohr. The comment line becomes the
// molecule name when non-empty.
func ParseXYZ(r io.Reader) (*Molecule, error) {
	sc := bufio.NewScanner(r)
	line := func() (string, bool) {
		if !sc.Scan() {
			return "", false
		}
		return strings.TrimSpace(sc.Text()), true
	}
	first, ok := line()
	if !ok {
		return nil, fmt.Errorf("chem: empty XYZ input")
	}
	count, err := strconv.Atoi(first)
	if err != nil || count < 1 {
		return nil, fmt.Errorf("chem: bad XYZ atom count %q", first)
	}
	comment, ok := line()
	if !ok {
		return nil, fmt.Errorf("chem: XYZ truncated after atom count")
	}
	mol := &Molecule{Name: comment}
	if mol.Name == "" {
		mol.Name = "xyz"
	}
	for i := 0; i < count; i++ {
		l, ok := line()
		if !ok {
			return nil, fmt.Errorf("chem: XYZ truncated at atom %d of %d", i+1, count)
		}
		fields := strings.Fields(l)
		if len(fields) < 4 {
			return nil, fmt.Errorf("chem: XYZ atom line %d has %d fields, want 4", i+1, len(fields))
		}
		z := AtomicNumber(fields[0])
		if z == 0 {
			// Accept a bare atomic number too.
			if n, err := strconv.Atoi(fields[0]); err == nil && n > 0 {
				z = n
			} else {
				return nil, fmt.Errorf("chem: unknown element %q on line %d", fields[0], i+1)
			}
		}
		var xyz [3]float64
		for k := 0; k < 3; k++ {
			v, err := strconv.ParseFloat(fields[k+1], 64)
			if err != nil {
				return nil, fmt.Errorf("chem: bad coordinate %q on atom line %d", fields[k+1], i+1)
			}
			xyz[k] = v * angstrom
		}
		mol.Atoms = append(mol.Atoms, Atom{Z: z, Pos: Vec3{xyz[0], xyz[1], xyz[2]}})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return mol, nil
}
