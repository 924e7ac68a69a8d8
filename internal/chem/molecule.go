// Package chem implements the computational-chemistry kernel that serves
// as the case-study workload: Gaussian basis sets, one- and two-electron
// integrals (McMurchie–Davidson scheme), Schwarz screening, a restricted
// Hartree–Fock SCF driver, and the blocked task decomposition of the Fock
// build whose highly irregular per-task costs drive the execution-model
// study.
//
// All quantities are in atomic units (bohr, hartree) unless noted.
package chem

import (
	"fmt"
	"math"
	"math/rand"
)

// Vec3 is a point or displacement in 3-D space (bohr).
type Vec3 struct{ X, Y, Z float64 }

// Sub returns v - w.
func (v Vec3) Sub(w Vec3) Vec3 { return Vec3{v.X - w.X, v.Y - w.Y, v.Z - w.Z} }

// Add returns v + w.
func (v Vec3) Add(w Vec3) Vec3 { return Vec3{v.X + w.X, v.Y + w.Y, v.Z + w.Z} }

// Scale returns s*v.
func (v Vec3) Scale(s float64) Vec3 { return Vec3{s * v.X, s * v.Y, s * v.Z} }

// Norm2 returns |v|².
func (v Vec3) Norm2() float64 { return v.X*v.X + v.Y*v.Y + v.Z*v.Z }

// Norm returns |v|.
func (v Vec3) Norm() float64 { return math.Sqrt(v.Norm2()) }

// Atom is a nucleus with an atomic number and a position.
type Atom struct {
	Z   int // atomic number
	Pos Vec3
}

var symbols = map[int]string{1: "H", 2: "He", 6: "C", 7: "N", 8: "O", 9: "F"}

// AtomicNumber returns the atomic number for an element symbol, or 0 if
// the element is not supported.
func AtomicNumber(symbol string) int {
	for z, s := range symbols {
		if s == symbol {
			return z
		}
	}
	return 0
}

// Molecule is a collection of atoms with an optional net charge.
type Molecule struct {
	Name   string
	Atoms  []Atom
	Charge int // net charge: +1 for a cation, -1 for an anion
}

// NumElectrons returns the total electron count, accounting for the net
// charge.
func (m *Molecule) NumElectrons() int {
	var n int
	for _, a := range m.Atoms {
		n += a.Z
	}
	return n - m.Charge
}

// NuclearRepulsion returns the Coulomb repulsion energy between nuclei.
func (m *Molecule) NuclearRepulsion() float64 {
	var e float64
	for i := 0; i < len(m.Atoms); i++ {
		for j := i + 1; j < len(m.Atoms); j++ {
			r := m.Atoms[i].Pos.Sub(m.Atoms[j].Pos).Norm()
			e += float64(m.Atoms[i].Z*m.Atoms[j].Z) / r
		}
	}
	return e
}

const angstrom = 1.8897259886 // bohr per ångström

// H2 returns a hydrogen molecule with the given bond length in bohr.
func H2(r float64) *Molecule {
	return &Molecule{
		Name: "H2",
		Atoms: []Atom{
			{Z: 1, Pos: Vec3{0, 0, 0}},
			{Z: 1, Pos: Vec3{0, 0, r}},
		},
	}
}

// Water returns a single water molecule at its experimental geometry
// (O-H 0.9578 Å, H-O-H 104.478°), centered on the oxygen.
func Water() *Molecule {
	const (
		roh   = 0.9578 * angstrom
		theta = 104.478 * math.Pi / 180
	)
	half := theta / 2
	return &Molecule{
		Name: "H2O",
		Atoms: []Atom{
			{Z: 8, Pos: Vec3{0, 0, 0}},
			{Z: 1, Pos: Vec3{roh * math.Sin(half), 0, roh * math.Cos(half)}},
			{Z: 1, Pos: Vec3{-roh * math.Sin(half), 0, roh * math.Cos(half)}},
		},
	}
}

// WaterCluster returns n water molecules placed on a jittered cubic
// lattice with roughly liquid-water density. The deterministic seed makes
// workloads reproducible; different seeds give different (but statistically
// similar) task-cost distributions.
func WaterCluster(n int, seed int64) *Molecule {
	if n < 1 {
		panic("chem: WaterCluster needs n >= 1")
	}
	rng := rand.New(rand.NewSource(seed))
	// ~3.1 Å nearest-neighbour O-O spacing, as in liquid water.
	const spacing = 3.1 * angstrom
	side := int(math.Ceil(math.Cbrt(float64(n))))
	mol := &Molecule{Name: fmt.Sprintf("(H2O)%d", n)}
	count := 0
placement:
	for ix := 0; ix < side; ix++ {
		for iy := 0; iy < side; iy++ {
			for iz := 0; iz < side; iz++ {
				if count == n {
					break placement
				}
				origin := Vec3{
					X: float64(ix)*spacing + 0.25*spacing*rng.Float64(),
					Y: float64(iy)*spacing + 0.25*spacing*rng.Float64(),
					Z: float64(iz)*spacing + 0.25*spacing*rng.Float64(),
				}
				w := Water()
				rotateInPlace(w, rng)
				for _, a := range w.Atoms {
					mol.Atoms = append(mol.Atoms, Atom{Z: a.Z, Pos: a.Pos.Add(origin)})
				}
				count++
			}
		}
	}
	return mol
}

// Alkane returns the linear alkane CnH(2n+2) in an idealized all-trans
// zig-zag geometry. Alkanes give long, thin molecules whose shell-pair
// sparsity pattern differs qualitatively from compact clusters.
func Alkane(n int) *Molecule {
	if n < 1 {
		panic("chem: Alkane needs n >= 1")
	}
	const (
		rcc   = 1.54 * angstrom
		rch   = 1.09 * angstrom
		theta = 111.0 * math.Pi / 180 // C-C-C angle
	)
	mol := &Molecule{Name: fmt.Sprintf("C%dH%d", n, 2*n+2)}
	dx := rcc * math.Sin(theta/2)
	dz := rcc * math.Cos(theta/2)
	for i := 0; i < n; i++ {
		c := Vec3{float64(i) * dx, 0, float64(i%2) * dz}
		mol.Atoms = append(mol.Atoms, Atom{Z: 6, Pos: c})
		// Two out-of-plane hydrogens per carbon.
		up := 1.0
		if i%2 == 1 {
			up = -1.0
		}
		hy := rch * math.Sin(theta/2)
		hz := up * rch * math.Cos(theta/2)
		mol.Atoms = append(mol.Atoms,
			Atom{Z: 1, Pos: c.Add(Vec3{0, hy, hz})},
			Atom{Z: 1, Pos: c.Add(Vec3{0, -hy, hz})},
		)
	}
	// Terminal hydrogens along the chain axis.
	first := mol.Atoms[0].Pos
	last := mol.Atoms[3*(n-1)].Pos
	mol.Atoms = append(mol.Atoms,
		Atom{Z: 1, Pos: first.Add(Vec3{-rch, 0, 0})},
		Atom{Z: 1, Pos: last.Add(Vec3{rch, 0, 0})},
	)
	return mol
}

// RandomCluster returns nAtoms atoms drawn from the given elements,
// uniformly placed in a sphere sized for roughly uniform density with a
// minimum inter-atomic distance of 1.2 bohr. It is the "unstructured"
// workload generator.
func RandomCluster(nAtoms int, elements []int, seed int64) *Molecule {
	if nAtoms < 1 {
		panic("chem: RandomCluster needs nAtoms >= 1")
	}
	if len(elements) == 0 {
		elements = []int{1, 8}
	}
	rng := rand.New(rand.NewSource(seed))
	// Sphere radius for ~ 9 bohr³ per atom.
	radius := math.Cbrt(float64(nAtoms) * 9.0 * 3.0 / (4.0 * math.Pi))
	mol := &Molecule{Name: fmt.Sprintf("rand%d", nAtoms)}
	const minDist = 1.2
	for len(mol.Atoms) < nAtoms {
		p := Vec3{
			X: (2*rng.Float64() - 1) * radius,
			Y: (2*rng.Float64() - 1) * radius,
			Z: (2*rng.Float64() - 1) * radius,
		}
		if p.Norm() > radius {
			continue
		}
		ok := true
		for _, a := range mol.Atoms {
			if a.Pos.Sub(p).Norm() < minDist {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		z := elements[rng.Intn(len(elements))]
		mol.Atoms = append(mol.Atoms, Atom{Z: z, Pos: p})
	}
	return mol
}

// rotateInPlace applies a random proper rotation about the molecule's
// first atom.
func rotateInPlace(m *Molecule, rng *rand.Rand) {
	// Random rotation from three Euler angles; distribution uniformity is
	// irrelevant here, variety is all that matters.
	a, b, c := 2*math.Pi*rng.Float64(), math.Pi*rng.Float64(), 2*math.Pi*rng.Float64()
	ca, sa := math.Cos(a), math.Sin(a)
	cb, sb := math.Cos(b), math.Sin(b)
	cc, sc := math.Cos(c), math.Sin(c)
	// ZYZ rotation matrix.
	r := [3][3]float64{
		{ca*cb*cc - sa*sc, -ca*cb*sc - sa*cc, ca * sb},
		{sa*cb*cc + ca*sc, -sa*cb*sc + ca*cc, sa * sb},
		{-sb * cc, sb * sc, cb},
	}
	origin := m.Atoms[0].Pos
	for i := range m.Atoms {
		d := m.Atoms[i].Pos.Sub(origin)
		m.Atoms[i].Pos = origin.Add(Vec3{
			X: r[0][0]*d.X + r[0][1]*d.Y + r[0][2]*d.Z,
			Y: r[1][0]*d.X + r[1][1]*d.Y + r[1][2]*d.Z,
			Z: r[2][0]*d.X + r[2][1]*d.Y + r[2][2]*d.Z,
		})
	}
}
