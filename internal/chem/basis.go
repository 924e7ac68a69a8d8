package chem

import (
	"fmt"
	"math"
	"slices"
	"sort"
)

// Shell is a contracted Cartesian Gaussian shell: a set of primitives
// sharing a center and total angular momentum L, expanded over all
// (L+1)(L+2)/2 Cartesian components.
//
// A merged sp shell (SCoefs set) is a Pople s and p shell pair over the
// same exponents on one atom, as NWChem's and GAMESS's "SP" shells: L is
// 1, Coefs is the p contraction and SCoefs the s one, and its four
// functions are s, px, py, pz from Start. The two-electron kernel
// evaluates it as one shell, so the Boys values and R cubes its parts
// share are computed once; everything else walks its parts.
type Shell struct {
	Atom   int  // index into Molecule.Atoms
	Center Vec3 // copy of the atom position
	L      int  // total angular momentum: 0=s, 1=p, 2=d, ...
	Exps   []float64
	Coefs  []float64 // contraction coefficients including primitive norms
	SCoefs []float64 // merged sp shell: the s part's coefficients; nil otherwise
	Start  int       // first basis-function index of this shell
}

// NumFuncs returns the number of Cartesian components of the shell,
// those of both parts for a merged sp shell.
func (s *Shell) NumFuncs() int {
	n := numCart(s.L)
	if s.SCoefs != nil {
		n++
	}
	return n
}

// numCart returns the number of Cartesian components of angular
// momentum L, (L+1)(L+2)/2.
func numCart(L int) int { return (L + 1) * (L + 2) / 2 }

// shellPart is one single-L part of a shell: its angular momentum and
// the offset of its first function from the shell's Start.
type shellPart struct{ L, Off int }

// parts lists the shell's single-L parts in basis-function order:
// ps[:n] is the shell's own L, or for a merged sp shell its s part and
// then its p part. It is the one place that takes a merged shell apart;
// returning a small array keeps it free of allocation.
func (s *Shell) parts() (ps [2]shellPart, n int) {
	if s.SCoefs == nil {
		return [2]shellPart{{L: s.L}}, 1
	}
	return [2]shellPart{{L: 0}, {L: 1, Off: 1}}, 2
}

// part returns part p of s as a plain shell: the s part of a merged sp
// shell carries SCoefs.
func (s *Shell) part(p shellPart) Shell {
	sh := Shell{Atom: s.Atom, Center: s.Center, L: p.L, Exps: s.Exps, Coefs: s.Coefs, Start: s.Start + p.Off}
	if s.SCoefs != nil && p.L == 0 {
		sh.Coefs = s.SCoefs
	}
	return sh
}

// MinExp returns the smallest primitive exponent, which controls the
// shell's spatial extent and hence its screening behaviour.
func (s *Shell) MinExp() float64 {
	m := s.Exps[0]
	for _, e := range s.Exps[1:] {
		if e < m {
			m = e
		}
	}
	return m
}

// CartComponent is one Cartesian angular momentum triple (lx, ly, lz).
type CartComponent struct{ Lx, Ly, Lz int }

// Components returns the Cartesian components of angular momentum L in
// canonical (lexicographic-descending in lx, then ly) order. The returned
// slice is shared and must not be mutated: the ERI hot path calls this
// once per quartet, so the common angular momenta are served from a
// precomputed table instead of allocating.
func Components(L int) []CartComponent {
	if L < len(componentsTab) {
		return componentsTab[L]
	}
	return makeComponents(L)
}

func makeComponents(L int) []CartComponent {
	var out []CartComponent
	for lx := L; lx >= 0; lx-- {
		for ly := L - lx; ly >= 0; ly-- {
			out = append(out, CartComponent{lx, ly, L - lx - ly})
		}
	}
	return out
}

// maxCachedL bounds the Components/ComponentNorms tables; real basis sets
// here stop at d shells (L=2), so 8 leaves generous headroom.
const maxCachedL = 8

var componentsTab = func() [][]CartComponent {
	tab := make([][]CartComponent, maxCachedL+1)
	for l := range tab {
		tab[l] = makeComponents(l)
	}
	return tab
}()

// ComponentNorms returns, for each Cartesian component of angular
// momentum L, the extra normalization factor relative to the (L,0,0)
// reference component whose norm the contraction coefficients carry:
//
//	N(lx,ly,lz) = sqrt( (2L-1)!! / ((2lx-1)!!(2ly-1)!!(2lz-1)!!) )
//
// With this factor applied in every integral, every Cartesian basis
// function has exactly unit self-overlap (e.g. dxy, whose raw norm under
// the shared shell coefficients would be 1/√3, is scaled by √3).
//
// Like Components, the returned slice is shared (precomputed per L) and
// must not be mutated.
func ComponentNorms(L int) []float64 {
	if L < len(componentNormsTab) {
		return componentNormsTab[L]
	}
	return makeComponentNorms(L)
}

func makeComponentNorms(L int) []float64 {
	comps := Components(L)
	out := make([]float64, len(comps))
	for i, c := range comps {
		out[i] = math.Sqrt(doubleFactorial(2*L-1) /
			(doubleFactorial(2*c.Lx-1) * doubleFactorial(2*c.Ly-1) * doubleFactorial(2*c.Lz-1)))
	}
	return out
}

var componentNormsTab = func() [][]float64 {
	tab := make([][]float64, maxCachedL+1)
	for l := range tab {
		tab[l] = makeComponentNorms(l)
	}
	return tab
}()

// BasisSet is a molecule-specific list of shells plus bookkeeping.
type BasisSet struct {
	Name   string
	Shells []Shell
	NBF    int // total number of basis functions
}

// shellSpec is one shell of a per-element basis definition.
type shellSpec struct {
	l     int
	exps  []float64
	coefs []float64
}

// basisLibrary maps basis-set name -> atomic number -> shells.
// Exponents and coefficients are the published STO-3G and 6-31G values
// (EMSL basis-set exchange).
var basisLibrary = map[string]map[int][]shellSpec{
	"sto-3g": {
		1: {
			{0, []float64{3.425250914, 0.6239137298, 0.1688554040},
				[]float64{0.1543289673, 0.5353281423, 0.4446345422}},
		},
		2: {
			{0, []float64{6.362421394, 1.158922999, 0.3136497915},
				[]float64{0.1543289673, 0.5353281423, 0.4446345422}},
		},
		9: {
			{0, []float64{166.6791340, 30.36081233, 8.216820672},
				[]float64{0.1543289673, 0.5353281423, 0.4446345422}},
			{0, []float64{6.464803249, 1.502281245, 0.4885884864},
				[]float64{-0.09996722919, 0.3995128261, 0.7001154689}},
			{1, []float64{6.464803249, 1.502281245, 0.4885884864},
				[]float64{0.1559162750, 0.6076837186, 0.3919573931}},
		},
		6: {
			{0, []float64{71.61683735, 13.04509632, 3.530512160},
				[]float64{0.1543289673, 0.5353281423, 0.4446345422}},
			{0, []float64{2.941249355, 0.6834830964, 0.2222899159},
				[]float64{-0.09996722919, 0.3995128261, 0.7001154689}},
			{1, []float64{2.941249355, 0.6834830964, 0.2222899159},
				[]float64{0.1559162750, 0.6076837186, 0.3919573931}},
		},
		7: {
			{0, []float64{99.10616896, 18.05231239, 4.885660238},
				[]float64{0.1543289673, 0.5353281423, 0.4446345422}},
			{0, []float64{3.780455879, 0.8784966449, 0.2857143744},
				[]float64{-0.09996722919, 0.3995128261, 0.7001154689}},
			{1, []float64{3.780455879, 0.8784966449, 0.2857143744},
				[]float64{0.1559162750, 0.6076837186, 0.3919573931}},
		},
		8: {
			{0, []float64{130.7093200, 23.80886605, 6.443608313},
				[]float64{0.1543289673, 0.5353281423, 0.4446345422}},
			{0, []float64{5.033151319, 1.169596125, 0.3803889600},
				[]float64{-0.09996722919, 0.3995128261, 0.7001154689}},
			{1, []float64{5.033151319, 1.169596125, 0.3803889600},
				[]float64{0.1559162750, 0.6076837186, 0.3919573931}},
		},
	},
	"6-31g": {
		1: {
			{0, []float64{18.73113696, 2.825394365, 0.6401216923},
				[]float64{0.03349460434, 0.2347269535, 0.8137573261}},
			{0, []float64{0.1612777588}, []float64{1.0}},
		},
		6: {
			{0, []float64{3047.524880, 457.3695180, 103.9486850, 29.21015530, 9.286662960, 3.163926960},
				[]float64{0.001834737132, 0.01403732281, 0.06884262226, 0.2321844432, 0.4679413484, 0.3623119853}},
			{0, []float64{7.868272350, 1.881288540, 0.5442492580},
				[]float64{-0.1193324198, -0.1608541517, 1.143456438}},
			{1, []float64{7.868272350, 1.881288540, 0.5442492580},
				[]float64{0.06899906659, 0.3164239610, 0.7443082909}},
			{0, []float64{0.1687144782}, []float64{1.0}},
			{1, []float64{0.1687144782}, []float64{1.0}},
		},
		8: {
			{0, []float64{5484.671660, 825.2349460, 188.0469580, 52.96450000, 16.89757040, 5.799635340},
				[]float64{0.001831074430, 0.01395017220, 0.06844507810, 0.2327143360, 0.4701928980, 0.3585208530}},
			{0, []float64{15.53961625, 3.599933586, 1.013761750},
				[]float64{-0.1107775495, -0.1480262627, 1.130767015}},
			{1, []float64{15.53961625, 3.599933586, 1.013761750},
				[]float64{0.07087426823, 0.3397528391, 0.7271585773}},
			{0, []float64{0.2700058226}, []float64{1.0}},
			{1, []float64{0.2700058226}, []float64{1.0}},
		},
	},
}

func init() {
	// 6-31G* = 6-31G plus a single Cartesian d polarization shell
	// (exponent 0.8) on heavy atoms. Built programmatically from the
	// 6-31G tables above.
	star := map[int][]shellSpec{}
	for z, specs := range basisLibrary["6-31g"] {
		cp := append([]shellSpec(nil), specs...)
		if z > 2 {
			cp = append(cp, shellSpec{2, []float64{0.8}, []float64{1.0}})
		}
		star[z] = cp
	}
	basisLibrary["6-31g*"] = star
}

// BasisNames returns the supported basis-set names.
func BasisNames() []string {
	names := make([]string, 0, len(basisLibrary))
	for n := range basisLibrary {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// NewBasis builds the basis set named name for molecule mol. It returns an
// error if the basis set or any element is unsupported.
//
// An s shell followed directly by a p shell with the same exponents is
// stored as one merged sp shell (see Shell): the basis-function order
// and NBF are those of the two shells apart. d shells, and s shells
// whose exponents differ from the next p shell's, stay as they are.
func NewBasis(name string, mol *Molecule) (*BasisSet, error) {
	lib, ok := basisLibrary[name]
	if !ok {
		return nil, fmt.Errorf("chem: unknown basis set %q (have %v)", name, BasisNames())
	}
	bs := &BasisSet{Name: name}
	for ai, atom := range mol.Atoms {
		specs, ok := lib[atom.Z]
		if !ok {
			return nil, fmt.Errorf("chem: basis %q has no element Z=%d", name, atom.Z)
		}
		for i, sp := range specs {
			sh := Shell{
				Atom:   ai,
				Center: atom.Pos,
				L:      sp.l,
				Exps:   append([]float64(nil), sp.exps...),
				Coefs:  append([]float64(nil), sp.coefs...),
				Start:  bs.NBF,
			}
			normalizeShell(&sh)
			if i > 0 && sp.l == 1 {
				if prev := &bs.Shells[len(bs.Shells)-1]; prev.L == 0 && slices.Equal(prev.Exps, sh.Exps) {
					prev.L, prev.Coefs, prev.SCoefs = 1, sh.Coefs, prev.Coefs
					bs.NBF += 3
					continue
				}
			}
			bs.Shells = append(bs.Shells, sh)
			bs.NBF += sh.NumFuncs()
		}
	}
	return bs, nil
}

// normalizeShell folds primitive normalization constants into the
// contraction coefficients and then rescales the contraction so the
// self-overlap of the first Cartesian component (L,0,0) is exactly 1.
// The remaining components (for L >= 2) are brought to unit norm by the
// per-component factors of ComponentNorms, applied inside every integral
// routine.
func normalizeShell(s *Shell) {
	L := s.L
	// Primitive normalization for the (L,0,0) component:
	// N = (2a/pi)^{3/4} (4a)^{L/2} / sqrt((2L-1)!!)
	for i, a := range s.Exps {
		n := math.Pow(2*a/math.Pi, 0.75) * math.Pow(4*a, float64(L)/2) /
			math.Sqrt(doubleFactorial(2*L-1))
		s.Coefs[i] *= n
	}
	// Contracted self-overlap of the (L,0,0) component:
	// S = sum_ij c_i c_j (pi/(a_i+a_j))^{3/2} (2L-1)!! / (2(a_i+a_j))^L
	var S float64
	for i, ai := range s.Exps {
		for j, aj := range s.Exps {
			p := ai + aj
			S += s.Coefs[i] * s.Coefs[j] *
				math.Pow(math.Pi/p, 1.5) * doubleFactorial(2*L-1) / math.Pow(2*p, float64(L))
		}
	}
	scale := 1 / math.Sqrt(S)
	for i := range s.Coefs {
		s.Coefs[i] *= scale
	}
}

// doubleFactorial returns n!! with (-1)!! == 1.
func doubleFactorial(n int) float64 {
	if n <= 0 {
		return 1
	}
	f := 1.0
	for k := n; k > 1; k -= 2 {
		f *= float64(k)
	}
	return f
}
