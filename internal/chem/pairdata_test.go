package chem

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"testing"

	"execmodels/internal/linalg"
)

// classShell builds a shell of kind l — angular momentum 0, 1 or 2, or
// 3 for a merged sp shell — with the first depth primitives of a fixed
// tight-to-diffuse ladder. Coefficients are plain numbers: the oracle and
// the kernel take them as given.
func classShell(l, depth int, center Vec3) *Shell {
	exps := []float64{0.27, 1.1, 5.4, 23.0, 130.0, 870.0}
	coefs := []float64{0.44, 0.53, 0.15, -0.09, 0.31, 0.02}
	if l == 3 {
		sCoefs := []float64{-0.21, 0.62, 0.37, 0.05, -0.18, 0.11}
		return &Shell{L: 1, Center: center, Exps: exps[:depth], Coefs: coefs[:depth], SCoefs: sCoefs[:depth]}
	}
	return &Shell{L: l, Center: center, Exps: exps[:depth], Coefs: coefs[:depth]}
}

// checkAgainstOracle holds ERIBlockPairInto on scratch s to ERIBlock for
// one quartet, element by element.
func checkAgainstOracle(t *testing.T, a, b, c, d *Shell, s *ERIScratch) {
	t.Helper()
	got := ERIBlockPairInto(NewPairData(a, b), NewPairData(c, d), s)
	want := ERIBlock(a, b, c, d)
	if len(got) != len(want) {
		t.Fatalf("(%d%d|%d%d): block of %d, oracle has %d", a.L, b.L, c.L, d.L, len(got), len(want))
	}
	for i, w := range want {
		if math.Abs(got[i]-w) > 1e-12*math.Max(1, math.Abs(w)) {
			t.Errorf("(%d%d|%d%d) depths %d%d%d%d element %d: %.17g, oracle %.17g",
				a.L, b.L, c.L, d.L, len(a.Exps), len(b.Exps), len(c.Exps), len(d.Exps), i, got[i], w)
			return
		}
	}
}

// checkWithinBudget holds the (bra|ket) block on scratch budgeted, which
// carries a Fock build's skip budget, within that budget of the block on
// the exact scratch exact, plus rounding: the kept terms are summed in
// the same order as the exact block's. It returns the primitive quartets
// the budgeted block evaluated and the block's total.
func checkWithinBudget(t *testing.T, bra, ket *PairData, exact, budgeted *ERIScratch) (kept, total int) {
	t.Helper()
	want := append([]float64(nil), ERIBlockPairInto(bra, ket, exact)...)
	got := ERIBlockPairInto(bra, ket, budgeted)
	for e, w := range want {
		if d := math.Abs(got[e] - w); d > budgeted.budget+1e-15*math.Max(1, math.Abs(w)) {
			t.Fatalf("(%d%d|%d%d) element %d: %.17g on a budget of %g, exact %.17g: off by %g",
				bra.A.L, bra.B.L, ket.A.L, ket.B.L, e, got[e], budgeted.budget, w, d)
		}
	}
	return primQuartetsKept(bra, ket, budgeted.budget), len(bra.prims) * len(ket.prims)
}

// The primitive-quartet skip is pinned by its counts, not only by a
// timing: on (H2O)4/STO-3G at seed 7 it drops about half of the primitive
// quartets of the surviving quartets (0.499 are kept with merged sp
// shells, 0.487 when each s/p pair was two shells), on a lone water
// almost none. A lost break keeps them all; unsorted primitive pairs stop
// the loops early and keep 0.28.
func TestPrimitiveQuartetCounts(t *testing.T) {
	for _, c := range []struct {
		name     string
		mol      *Molecule
		min, max float64
	}{
		{"(H2O)4", WaterCluster(4, 7), 0.45, 0.55},
		{"water", Water(), 0.99, 1},
	} {
		w := BuildFockWorkload(mustBasis(t, "sto-3g", c.mol), 1e-10, 4)
		st := w.Stats()
		share := float64(st.PrimSurviving) / float64(st.PrimQuartets)
		t.Logf("%s: %d of %d primitive quartets evaluated (%.3f)", c.name, st.PrimSurviving, st.PrimQuartets, share)
		if share < c.min || share > c.max {
			t.Errorf("%s: %.3f of the primitive quartets evaluated, want [%g, %g]", c.name, share, c.min, c.max)
		}
	}
}

// Every shell class (la lb|lc ld) with each shell s, p, d or a merged sp
// shell, 256 classes, against the oracle, at contraction depths 1, 3 and
// 6, on four, two and one centre. They reach every bra width of the
// kernel's ket contraction: 4 and 10 (lbra 1 and 2), each with and
// without merged parts, and the generic loop of lbra 3 and 4. One scratch
// serves every quartet, first from the largest block down and then back
// up: the kernel never zeroes its workspace, so this is the check that
// nothing of a larger, earlier quartet leaks into a smaller, later one.
// A second pass runs every quartet again on one scratch with a Fock
// build's skip budget and holds each block within that budget of the
// exact one; it must skip some primitive quartets, or it checks nothing.
func TestERIBlockPairIntoAllClasses(t *testing.T) {
	p := [4]Vec3{{0, 0, 0}, {0.3, 1.2, -0.8}, {-1.1, 0.4, 0.9}, {1.6, -0.7, 0.5}}
	geometries := []struct {
		name    string
		centres [4]Vec3
	}{
		{"four-centre", p},
		{"two-centre", [4]Vec3{p[0], p[1], p[0], p[1]}},
		{"one-centre", [4]Vec3{p[1], p[1], p[1], p[1]}},
	}
	nf := [4]int{1, 3, 6, 4} // functions of each shell kind: s, p, d, sp
	var classes [][4]int
	for la := range nf {
		for lb := range nf {
			for lc := range nf {
				for ld := range nf {
					classes = append(classes, [4]int{la, lb, lc, ld})
				}
			}
		}
	}
	size := func(l [4]int) int { return nf[l[0]] * nf[l[1]] * nf[l[2]] * nf[l[3]] }
	slices.SortStableFunc(classes, func(x, y [4]int) int { return cmp.Compare(size(y), size(x)) })
	for _, g := range geometries {
		t.Run(g.name, func(t *testing.T) {
			var s ERIScratch
			budgeted := ERIScratch{budget: primBudget(1e-10)}
			var kept, total int
			for _, depth := range []int{1, 3, 6} {
				// Four deep shells would cost the (dd|dd) oracle 1296
				// primitive quartets; one deep shell a side, rotating,
				// reaches every position with depth² of them.
				quartet := func(ci int) [4]*Shell {
					l := classes[ci]
					var sh [4]*Shell
					for i := range sh {
						dep := 1
						if i == ci%2 || i == 2+ci/2%2 {
							dep = depth
						}
						sh[i] = classShell(l[i], dep, g.centres[i])
					}
					return sh
				}
				order := make([]int, 0, 2*len(classes))
				for ci := range classes {
					order = append(order, ci)
				}
				for ci := len(classes) - 1; ci >= 0; ci-- {
					order = append(order, ci)
				}
				for _, ci := range order {
					sh := quartet(ci)
					checkAgainstOracle(t, sh[0], sh[1], sh[2], sh[3], &s)
				}
				for _, ci := range order {
					sh := quartet(ci)
					k, n := checkWithinBudget(t, NewPairData(sh[0], sh[1]), NewPairData(sh[2], sh[3]), &s, &budgeted)
					kept, total = kept+k, total+n
				}
			}
			t.Logf("budget %g: %d of %d primitive quartets evaluated", budgeted.budget, kept, total)
			if kept == total {
				t.Errorf("the budgeted pass skipped no primitive quartet")
			}
		})
	}
}

// The R cube's fixed stride, rStride = boysTableOrder+1, holds the
// Hermite orders up to ltot = 4·L of a quartet of four shells of L, and
// the Boys table serves the same orders: every shell of every shipped
// basis must fit both, so that a basis with f shells fails here instead
// of indexing past the cube.
func TestBasisLibraryFitsKernelStride(t *testing.T) {
	for name, lib := range basisLibrary {
		maxL := 0
		for _, specs := range lib {
			for _, sp := range specs {
				maxL = max(maxL, sp.l)
			}
		}
		if 4*maxL > boysTableOrder {
			t.Errorf("%s: shells up to L = %d need Hermite order %d, the kernel serves %d",
				name, maxL, 4*maxL, boysTableOrder)
		}
	}
}

// compute writes orders 1–4 out as straight-line code; recur is the
// loop it replaced there and still runs for orders 5–8. The ERI oracle
// builds its R through compute too, so no kernel test would see a wrong
// entry: this one holds every entry t+u+v <= tmax of compute to recur's,
// bit for bit, on the same scaled Boys values. The draws put components
// of PC at +0 and −0, x = p·|PC|² on both sides of Boys' switch at 35,
// and scale at 0 and below it, where a dropped 0·R term changes the sign
// of a zero entry.
func TestHermiteRStraightLineMatchesLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var w hermiteRWork
	got := make([]float64, cubeLen(4))
	var below, above, zeros int
	for range 20000 {
		p := math.Exp(rng.Float64()*math.Log(1e6)) * 1e-2 // 0.01 to 1e4
		var d Vec3
		for _, c := range []*float64{&d.X, &d.Y, &d.Z} {
			switch rng.Intn(6) {
			case 0:
				*c = 0
			case 1:
				*c = math.Copysign(0, -1)
			default:
				*c = 2*rng.Float64() - 1
			}
		}
		x := 35 * rng.Float64()
		if rng.Intn(2) == 0 {
			x = 35 + 85*rng.Float64()
		}
		pc := d
		if n2 := d.Norm2(); n2 > 0 {
			pc = d.Scale(math.Sqrt(x / (p * n2)))
		}
		if p*pc.Norm2() < boysSwitch {
			below++
		} else {
			above++
		}
		scale := math.Exp(rng.Float64()*math.Log(1e6)) * 1e-3
		switch rng.Intn(8) {
		case 0:
			scale = 0
		case 1, 2, 3:
			scale = -scale
		}
		for tmax := 1; tmax <= 4; tmax++ {
			copy(got, w.compute(tmax, p, pc, scale))
			want := w.recur(tmax, pc)
			for _, o := range hermiteOff[tmax] {
				if math.Float64bits(got[o]) != math.Float64bits(want[o]) {
					t.Fatalf("tmax %d, p %g, PC %v, scale %g: entry at %d is %g (%#x), the loop's %g (%#x)",
						tmax, p, pc, scale, o, got[o], math.Float64bits(got[o]), want[o], math.Float64bits(want[o]))
				}
				if got[o] == 0 {
					zeros++
				}
			}
		}
	}
	if below == 0 || above == 0 || zeros == 0 {
		t.Fatalf("draws miss a case: %d below the Boys switch, %d above, %d zero entries", below, above, zeros)
	}
}

// randomQuartet draws the four shells of a fuzz quartet: exponents
// log-uniform in [0.05, 5000], coefficients in [-1, 1], centres within
// 12 bohr, each shell s, p, d or a merged sp shell (its own s
// coefficients), so every class up to (dd|dd) with and without merged
// shells, depths 1 to 3, and one time in four each of three patterns of
// shared centres.
func randomQuartet(seed int64) [4]*Shell {
	rng := rand.New(rand.NewSource(seed))
	var sh [4]*Shell
	for i := range sh {
		depth := 1 + rng.Intn(3)
		l := rng.Intn(4) // 3: a merged sp shell
		s := &Shell{L: l, Center: Vec3{
			X: 12 * (rng.Float64() - 0.5), Y: 12 * (rng.Float64() - 0.5), Z: 12 * (rng.Float64() - 0.5)}}
		if l == 3 {
			s.L = 1
		}
		for k := 0; k < depth; k++ {
			s.Exps = append(s.Exps, 0.05*math.Pow(1e5, rng.Float64()))
			s.Coefs = append(s.Coefs, 2*rng.Float64()-1)
			if l == 3 {
				s.SCoefs = append(s.SCoefs, 2*rng.Float64()-1)
			}
		}
		sh[i] = s
	}
	// Shared centres are the structurally different cases.
	switch rng.Intn(4) {
	case 0:
		sh[1].Center = sh[0].Center
	case 1:
		sh[2].Center, sh[3].Center = sh[0].Center, sh[1].Center
	case 2:
		sh[1].Center, sh[2].Center, sh[3].Center = sh[0].Center, sh[0].Center, sh[0].Center
	}
	return sh
}

// FuzzERIBlockPair holds the kernel to the oracle on random quartets
// (randomQuartet).
func FuzzERIBlockPair(f *testing.F) {
	f.Add(int64(1))
	f.Add(int64(7))
	f.Add(int64(-42))
	f.Add(int64(16)) // two merged sp shells beside two d shells
	f.Fuzz(func(t *testing.T, seed int64) {
		sh := randomQuartet(seed)
		checkAgainstOracle(t, sh[0], sh[1], sh[2], sh[3], &ERIScratch{})
	})
}

// FuzzPrimitiveBound is the no-false-drop check of the primitive-quartet
// skip, on randomQuartet's quartets. (a) Every element of the block of a
// single primitive quartet stays within q·q' of its two primitive pairs:
// the bound the skip trusts. (b) The block on a scratch with the budget
// of a Fock build stays within that budget of the exact block: the skip
// drops nothing that still carries weight.
func FuzzPrimitiveBound(f *testing.F) {
	f.Add(int64(1))
	f.Add(int64(7))
	f.Add(int64(-42))
	f.Add(int64(16)) // two merged sp shells beside two d shells
	f.Fuzz(func(t *testing.T, seed int64) {
		sh := randomQuartet(seed)
		bra, ket := NewPairData(sh[0], sh[1]), NewPairData(sh[2], sh[3])
		var exact ERIScratch
		vb, vk := *bra, *ket
		for i := range bra.prims {
			for k := range ket.prims {
				vb.prims, vb.q = bra.prims[i:i+1], bra.q[i:i+1]
				vk.prims, vk.q = ket.prims[k:k+1], ket.q[k:k+1]
				q := bra.q[i] * ket.q[k]
				for e, v := range ERIBlockPairInto(&vb, &vk, &exact) {
					// A far-apart pair's (ab|ab) carries its Gaussian
					// prefactor squared and can underflow where (ab|cd)
					// does not; such a q stands for one below 1e-154.
					if math.Abs(v) > q*(1+1e-12)+1e-150 {
						t.Fatalf("primitive quartet (%d|%d) element %d: |%.17g| exceeds q·q' = %.17g", i, k, e, v, q)
					}
				}
			}
		}
		checkWithinBudget(t, bra, ket, &exact, &ERIScratch{budget: primBudget(1e-10)})
	})
}

// FuzzDensityBound is the no-false-drop check of the density rule, on
// randomQuartet's four shells taken as a basis of their own, with random
// symmetric α and β densities scaled by 10^−k, k from −3 to 12. The rule
// lets no integral·density term of J or K move by more than the budget,
// so a Fock build's scratch must keep every element of J, Kα and Kβ
// within the budget per term of what an exact scratch digests, plus
// rounding: 1e-14 of the terms' absolute sum, an integral counted as at
// least 1 as in FuzzPrimitiveBound.
func FuzzDensityBound(f *testing.F) {
	f.Add(int64(1))
	f.Add(int64(7))
	f.Add(int64(-42))
	f.Add(int64(16)) // two merged sp shells beside two d shells
	f.Fuzz(func(t *testing.T, seed int64) {
		bs := &BasisSet{Name: "fuzz"}
		for _, sh := range randomQuartet(seed) {
			sh.Start = bs.NBF
			bs.NBF += sh.NumFuncs()
			bs.Shells = append(bs.Shells, *sh)
		}
		w := BuildFockWorkload(bs, 1e-10, 2)
		n := bs.NBF
		rng := rand.New(rand.NewSource(seed))
		scale := math.Pow(10, float64(3-rng.Intn(16)))
		density := func() *linalg.Matrix {
			d := linalg.NewMatrix(n, n)
			for i := 0; i < n; i++ {
				for j := 0; j <= i; j++ {
					v := scale * (2*rng.Float64() - 1)
					d.Set(i, j, v)
					d.Set(j, i, v)
				}
			}
			return d
		}
		dA, dB := density(), density()
		dTot := dA.Clone().AddScaled(1, dB)
		build := func(s *ERIScratch) []*linalg.Matrix {
			jk := []*linalg.Matrix{linalg.NewMatrix(n, n), linalg.NewMatrix(n, n), linalg.NewMatrix(n, n)}
			for i := range w.Tasks {
				w.ExecuteTaskSpinScratch(&w.Tasks[i], dTot, dA, dB, jk[0], jk[1], jk[2], s)
			}
			return jk
		}
		exact, got := build(NewERIScratch(bs)), build(w.NewScratch())

		// The terms each element takes, and their absolute sum: the same
		// digest on a block and densities of ones, and of absolute values.
		abs := func(d *linalg.Matrix) *linalg.Matrix {
			a := d.Clone()
			for i, v := range a.Data {
				a.Data[i] = math.Abs(v)
			}
			return a
		}
		ones := linalg.NewMatrix(n, n)
		for i := range ones.Data {
			ones.Data[i] = 1
		}
		terms := []*linalg.Matrix{linalg.NewMatrix(n, n), linalg.NewMatrix(n, n), linalg.NewMatrix(n, n)}
		mass := []*linalg.Matrix{linalg.NewMatrix(n, n), linalg.NewMatrix(n, n), linalg.NewMatrix(n, n)}
		aTot, aA, aB := abs(dTot), abs(dA), abs(dB)
		s := NewERIScratch(bs)
		for ti := range w.Tasks {
			task := &w.Tasks[ti]
			for bi, bra := range task.BraPairs {
				for _, ki := range task.Kets[bi] {
					ket := &w.Pairs[ki]
					blk := ERIBlockPairInto(w.pairData[task.PairOffset+bi], w.pairData[ki], s)
					one, size := make([]float64, len(blk)), make([]float64, len(blk))
					for e, v := range blk {
						one[e], size[e] = 1, math.Max(1, math.Abs(v))
					}
					digestQuartet(terms[0], ones, terms[1:], []*linalg.Matrix{ones, ones},
						bs.Shells, bra.I, bra.J, ket.I, ket.J, one)
					digestQuartet(mass[0], aTot, mass[1:], []*linalg.Matrix{aA, aB},
						bs.Shells, bra.I, bra.J, ket.I, ket.J, size)
				}
			}
		}
		budget := w.NewScratch().budget
		for m, name := range []string{"J", "Kα", "Kβ"} {
			for e, want := range exact[m].Data {
				tol := budget*terms[m].Data[e] + 1e-14*mass[m].Data[e]
				if d := math.Abs(got[m].Data[e] - want); d > tol {
					t.Fatalf("density scale %g, %s element %d: %.17g on a budget of %g, exact %.17g: off by %g, allowed %g",
						scale, name, e, got[m].Data[e], budget, want, d, tol)
				}
			}
		}
	})
}
