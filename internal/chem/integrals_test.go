package chem

import (
	"math"
	"math/rand"
	"testing"

	"execmodels/internal/linalg"
)

func mustBasis(t testing.TB, name string, mol *Molecule) *BasisSet {
	t.Helper()
	bs, err := NewBasis(name, mol)
	if err != nil {
		t.Fatal(err)
	}
	return bs
}

func TestBasisUnknownName(t *testing.T) {
	if _, err := NewBasis("nope", H2(1.4)); err == nil {
		t.Fatal("expected error for unknown basis")
	}
}

func TestBasisUnknownElement(t *testing.T) {
	mol := &Molecule{Atoms: []Atom{{Z: 92}}}
	if _, err := NewBasis("sto-3g", mol); err == nil {
		t.Fatal("expected error for unsupported element")
	}
}

func TestBasisSizes(t *testing.T) {
	cases := []struct {
		basis string
		mol   *Molecule
		nbf   int
	}{
		{"sto-3g", H2(1.4), 2},
		{"sto-3g", Water(), 7}, // O: 1s+2s+2p(3) = 5, 2 H
		{"6-31g", H2(1.4), 4},  // 2 s shells per H
		{"6-31g", Water(), 13}, // O: 3s + 2*3p = 9, plus 4 H functions
	}
	for _, c := range cases {
		bs := mustBasis(t, c.basis, c.mol)
		if bs.NBF != c.nbf {
			t.Errorf("%s/%s: NBF = %d, want %d", c.basis, c.mol.Name, bs.NBF, c.nbf)
		}
	}
}

func TestComponents(t *testing.T) {
	if n := len(Components(0)); n != 1 {
		t.Fatalf("s components = %d", n)
	}
	if n := len(Components(1)); n != 3 {
		t.Fatalf("p components = %d", n)
	}
	if n := len(Components(2)); n != 6 {
		t.Fatalf("d components = %d", n)
	}
}

func TestOverlapDiagonalIsOne(t *testing.T) {
	for _, name := range BasisNames() {
		bs := mustBasis(t, name, Water())
		s := Overlap(bs)
		for i := 0; i < bs.NBF; i++ {
			if math.Abs(s.At(i, i)-1) > 1e-10 {
				t.Errorf("%s: S[%d][%d] = %v, want 1", name, i, i, s.At(i, i))
			}
		}
		if s.MaxAbsDiff(s.Transpose()) > 1e-12 {
			t.Errorf("%s: overlap not symmetric", name)
		}
	}
}

// Szabo & Ostlund table 3.5-ish: H2/STO-3G at R = 1.4 bohr has
// S12 ≈ 0.6593, T11 ≈ 0.7600, (11|11) ≈ 0.7746, (11|22)... etc.
func TestH2STO3GKnownIntegrals(t *testing.T) {
	bs := mustBasis(t, "sto-3g", H2(1.4))
	s := Overlap(bs)
	if math.Abs(s.At(0, 1)-0.6593) > 5e-4 {
		t.Errorf("S12 = %v, want ~0.6593", s.At(0, 1))
	}
	k := Kinetic(bs)
	if math.Abs(k.At(0, 0)-0.7600) > 5e-4 {
		t.Errorf("T11 = %v, want ~0.7600", k.At(0, 0))
	}
	if math.Abs(k.At(0, 1)-0.2365) > 5e-4 {
		t.Errorf("T12 = %v, want ~0.2365", k.At(0, 1))
	}

	a, b := &bs.Shells[0], &bs.Shells[1]
	eri1111 := ERIBlock(a, a, a, a)[0]
	if math.Abs(eri1111-0.7746) > 5e-4 {
		t.Errorf("(11|11) = %v, want ~0.7746", eri1111)
	}
	eri1122 := ERIBlock(a, a, b, b)[0]
	if math.Abs(eri1122-0.5697) > 5e-4 {
		t.Errorf("(11|22) = %v, want ~0.5697", eri1122)
	}
	eri2111 := ERIBlock(b, a, a, a)[0]
	if math.Abs(eri2111-0.4441) > 5e-4 {
		t.Errorf("(21|11) = %v, want ~0.4441", eri2111)
	}
	eri2121 := ERIBlock(b, a, b, a)[0]
	if math.Abs(eri2121-0.2970) > 5e-4 {
		t.Errorf("(21|21) = %v, want ~0.2970", eri2121)
	}
}

// Hydrogen fluoride, STO-3G: E_RHF ≈ -98.57 hartree at R ≈ 0.917 Å.
func TestSCFHydrogenFluoride(t *testing.T) {
	mol := &Molecule{
		Name: "HF",
		Atoms: []Atom{
			{Z: 9},
			{Z: 1, Pos: Vec3{Z: 0.917 * angstrom}},
		},
	}
	bs := mustBasis(t, "sto-3g", mol)
	res, err := RunSCF(mol, bs, SCFOptions{UseDIIS: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("not converged")
	}
	if res.Energy > -98.4 || res.Energy < -98.8 {
		t.Errorf("E(HF) = %.5f, want ≈ -98.57", res.Energy)
	}
}

// A helium atom: two electrons in one 1s function, E ≈ -2.8078 hartree
// for STO-3G.
func TestSCFHelium(t *testing.T) {
	mol := &Molecule{Name: "He", Atoms: []Atom{{Z: 2}}}
	bs := mustBasis(t, "sto-3g", mol)
	res, err := RunSCF(mol, bs, SCFOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("not converged")
	}
	if math.Abs(res.Energy-(-2.8078)) > 5e-3 {
		t.Errorf("E(He) = %.5f, want ≈ -2.8078", res.Energy)
	}
}

// Kinetic and nuclear-attraction integrals for a single H atom, STO-3G:
// <T> = 0.7600, <V> = -1.2266 (literature values for the 1s STO-3G fit).
func TestHAtomOneElectron(t *testing.T) {
	mol := &Molecule{Name: "H", Atoms: []Atom{{Z: 1}}}
	bs := mustBasis(t, "sto-3g", mol)
	k := Kinetic(bs)
	v := NuclearAttraction(bs, mol)
	if math.Abs(k.At(0, 0)-0.76003) > 1e-4 {
		t.Errorf("T = %v", k.At(0, 0))
	}
	if math.Abs(v.At(0, 0)+1.22661) > 1e-4 {
		t.Errorf("V = %v", v.At(0, 0))
	}
}

// ERI 8-fold permutational symmetry on a molecule with p functions.
func TestERIPermutationSymmetry(t *testing.T) {
	bs := mustBasis(t, "sto-3g", Water())
	// Pick shells covering s and merged sp shells: O 1s, O 2sp, H, H.
	quads := [][4]int{{0, 1, 2, 3}, {0, 1, 1, 2}, {1, 1, 2, 3}, {0, 1, 1, 3}}
	for _, q := range quads {
		a, b, c, d := &bs.Shells[q[0]], &bs.Shells[q[1]], &bs.Shells[q[2]], &bs.Shells[q[3]]
		na, nb, nc, nd := a.NumFuncs(), b.NumFuncs(), c.NumFuncs(), d.NumFuncs()
		abcd := ERIBlock(a, b, c, d)
		bacd := ERIBlock(b, a, c, d)
		cdab := ERIBlock(c, d, a, b)
		abdc := ERIBlock(a, b, d, c)
		for fa := 0; fa < na; fa++ {
			for fb := 0; fb < nb; fb++ {
				for fc := 0; fc < nc; fc++ {
					for fd := 0; fd < nd; fd++ {
						v := abcd[((fa*nb+fb)*nc+fc)*nd+fd]
						if w := bacd[((fb*na+fa)*nc+fc)*nd+fd]; math.Abs(v-w) > 1e-10 {
							t.Fatalf("(ab|cd) != (ba|cd): %v %v", v, w)
						}
						if w := cdab[((fc*nd+fd)*na+fa)*nb+fb]; math.Abs(v-w) > 1e-10 {
							t.Fatalf("(ab|cd) != (cd|ab): %v %v", v, w)
						}
						if w := abdc[((fa*nb+fb)*nd+fd)*nc+fc]; math.Abs(v-w) > 1e-10 {
							t.Fatalf("(ab|cd) != (ab|dc): %v %v", v, w)
						}
					}
				}
			}
		}
	}
}

// (ab|ab) must be non-negative (it is a self-repulsion).
func TestERIDiagonalPositive(t *testing.T) {
	bs := mustBasis(t, "6-31g", Water())
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 20; trial++ {
		i, j := rng.Intn(len(bs.Shells)), rng.Intn(len(bs.Shells))
		a, b := &bs.Shells[i], &bs.Shells[j]
		blk := ERIBlock(a, b, a, b)
		na, nb := a.NumFuncs(), b.NumFuncs()
		for fa := 0; fa < na; fa++ {
			for fb := 0; fb < nb; fb++ {
				if v := blk[((fa*nb+fb)*na+fa)*nb+fb]; v < -1e-12 {
					t.Fatalf("(ab|ab) = %v < 0 for shells %d,%d", v, i, j)
				}
			}
		}
	}
}

// Cauchy–Schwarz: |(ab|cd)| <= Q_ab * Q_cd for every element.
func TestSchwarzInequality(t *testing.T) {
	bs := mustBasis(t, "sto-3g", Water())
	pairs := SchwarzBounds(bs)
	bound := make(map[[2]int]float64)
	for _, p := range pairs {
		bound[[2]int{p.I, p.J}] = p.Bound
	}
	q := func(i, j int) float64 {
		if i > j {
			i, j = j, i
		}
		return bound[[2]int{i, j}]
	}
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 30; trial++ {
		i, j := rng.Intn(len(bs.Shells)), rng.Intn(len(bs.Shells))
		k, l := rng.Intn(len(bs.Shells)), rng.Intn(len(bs.Shells))
		blk := ERIBlock(&bs.Shells[i], &bs.Shells[j], &bs.Shells[k], &bs.Shells[l])
		var mx float64
		for _, v := range blk {
			if math.Abs(v) > mx {
				mx = math.Abs(v)
			}
		}
		if lim := q(i, j)*q(k, l) + 1e-10; mx > lim {
			t.Fatalf("quartet (%d%d|%d%d): max %v exceeds Schwarz bound %v", i, j, k, l, mx, lim)
		}
	}
}

func TestSignificantPairsFilters(t *testing.T) {
	bs := mustBasis(t, "sto-3g", WaterCluster(4, 1))
	pairs := SchwarzBounds(bs)
	all := SignificantPairs(pairs, 0)
	if len(all) != len(pairs) {
		t.Fatal("threshold 0 should keep everything")
	}
	some := SignificantPairs(pairs, 1e-8)
	if len(some) >= len(pairs) {
		t.Fatalf("threshold 1e-8 kept all %d pairs of a spread-out cluster", len(pairs))
	}
	if len(some) == 0 {
		t.Fatal("threshold 1e-8 dropped everything")
	}
}

// The nuclear attraction matrix must be strictly negative on the diagonal
// (electron-nucleus attraction).
func TestNuclearAttractionNegativeDiagonal(t *testing.T) {
	mol := Water()
	bs := mustBasis(t, "sto-3g", mol)
	v := NuclearAttraction(bs, mol)
	for i := 0; i < bs.NBF; i++ {
		if v.At(i, i) >= 0 {
			t.Fatalf("V[%d][%d] = %v", i, i, v.At(i, i))
		}
	}
	if v.MaxAbsDiff(v.Transpose()) > 1e-10 {
		t.Fatal("V not symmetric")
	}
}

// Kinetic energy matrix must be positive definite.
func TestKineticPositiveDefinite(t *testing.T) {
	bs := mustBasis(t, "6-31g", Water())
	k := Kinetic(bs)
	vals, _ := linalg.EigenSym(k)
	if vals[0] <= 0 {
		t.Fatalf("smallest kinetic eigenvalue %v", vals[0])
	}
}

// Overlap matrix must be positive definite (basis is linearly independent).
func TestOverlapPositiveDefinite(t *testing.T) {
	bs := mustBasis(t, "6-31g", Water())
	s := Overlap(bs)
	vals, _ := linalg.EigenSym(s)
	if vals[0] <= 0 {
		t.Fatalf("smallest overlap eigenvalue %v", vals[0])
	}
}

// The pair-data-cached ERI path must agree exactly with the direct path,
// including d shells.
func TestERIBlockPairMatchesDirect(t *testing.T) {
	mol := Water()
	for _, basis := range []string{"sto-3g", "6-31g*"} {
		bs := mustBasis(t, basis, mol)
		rng := rand.New(rand.NewSource(8))
		for trial := 0; trial < 15; trial++ {
			i, j := rng.Intn(len(bs.Shells)), rng.Intn(len(bs.Shells))
			k, l := rng.Intn(len(bs.Shells)), rng.Intn(len(bs.Shells))
			a, b, c, d := &bs.Shells[i], &bs.Shells[j], &bs.Shells[k], &bs.Shells[l]
			direct := ERIBlock(a, b, c, d)
			cached := ERIBlockPairInto(NewPairData(a, b), NewPairData(c, d), &ERIScratch{})
			if len(direct) != len(cached) {
				t.Fatalf("%s: block sizes differ", basis)
			}
			for x := range direct {
				if math.Abs(direct[x]-cached[x]) > 1e-13 {
					t.Fatalf("%s quartet (%d%d|%d%d): element %d differs: %v vs %v",
						basis, i, j, k, l, x, direct[x], cached[x])
				}
			}
		}
	}
}

// The task cost model charges a positive cost, more to a p quartet than
// to an s one, and to a merged sp quartet the sum over its sixteen
// single-L part quartets.
func TestERIBlockFlopsPositiveAndMonotone(t *testing.T) {
	bs := mustBasis(t, "sto-3g", Water())
	s, sp := &bs.Shells[0], &bs.Shells[1] // O 1s and O 2sp
	flops := func(a, b, c, d *Shell) float64 {
		bra, ket := newPairFlops(a, b), newPairFlops(c, d)
		return eriBlockFlops(&bra, &ket)
	}
	ps, n := sp.parts()
	if sp.SCoefs == nil || n != 2 {
		t.Fatalf("shell 1 of water/STO-3G is not a merged sp shell: %d parts", n)
	}
	parts := []Shell{sp.part(ps[0]), sp.part(ps[1])}
	p := &parts[1]
	fs, fp := flops(s, s, s, s), flops(p, p, p, p)
	if fs <= 0 || fp <= fs {
		t.Fatalf("flops model: ssss=%v pppp=%v", fs, fp)
	}
	var sum float64
	for a := range parts {
		for b := range parts {
			for c := range parts {
				for d := range parts {
					sum += flops(&parts[a], &parts[b], &parts[c], &parts[d])
				}
			}
		}
	}
	if got := flops(sp, sp, sp, sp); math.Abs(got-sum) > 1e-12*sum {
		t.Errorf("(sp sp|sp sp) costs %v, its part quartets %v", got, sum)
	}
}
