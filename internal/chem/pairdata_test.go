package chem

import (
	"math"
	"math/rand"
	"testing"
)

// classShell builds a shell of angular momentum l with the first depth
// primitives of a fixed tight-to-diffuse ladder. Coefficients are plain
// numbers: the oracle and the kernel take them as given.
func classShell(l, depth int, center Vec3) *Shell {
	exps := []float64{0.27, 1.1, 5.4, 23.0, 130.0, 870.0}
	coefs := []float64{0.44, 0.53, 0.15, -0.09, 0.31, 0.02}
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

// The primitive-quartet skip is pinned by its counts, not only by a
// timing: on (H2O)4/STO-3G at seed 7 it drops about half of the primitive
// quartets of the surviving quartets (0.487 are kept), on a lone water
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

// Every shell class (la lb|lc ld) with l in {s, p, d} against the oracle,
// at contraction depths 1, 3 and 6, on four, two and one centre. One
// scratch serves every quartet, first from the largest block down and then
// back up: the kernel never zeroes its workspace, so this is the check
// that nothing of a larger, earlier quartet leaks into a smaller, later
// one.
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
	var classes [][4]int
	for sum := 8; sum >= 0; sum-- { // descending block size
		for la := 0; la <= 2; la++ {
			for lb := 0; lb <= 2; lb++ {
				for lc := 0; lc <= 2; lc++ {
					if ld := sum - la - lb - lc; ld >= 0 && ld <= 2 {
						classes = append(classes, [4]int{la, lb, lc, ld})
					}
				}
			}
		}
	}
	if len(classes) != 81 {
		t.Fatalf("%d classes, want 81", len(classes))
	}
	for _, g := range geometries {
		t.Run(g.name, func(t *testing.T) {
			var s ERIScratch
			for _, depth := range []int{1, 3, 6} {
				// Four deep shells would cost the (dd|dd) oracle 1296
				// primitive quartets; one deep shell a side, rotating,
				// reaches every position with depth² of them.
				run := func(ci int) {
					l := classes[ci]
					var sh [4]*Shell
					for i := range sh {
						dep := 1
						if i == ci%2 || i == 2+ci/2%2 {
							dep = depth
						}
						sh[i] = classShell(l[i], dep, g.centres[i])
					}
					checkAgainstOracle(t, sh[0], sh[1], sh[2], sh[3], &s)
				}
				for ci := range classes {
					run(ci)
				}
				for ci := len(classes) - 1; ci >= 0; ci-- {
					run(ci)
				}
			}
		})
	}
}

// randomQuartet draws the four shells of a fuzz quartet: exponents
// log-uniform in [0.05, 5000], coefficients in [-1, 1], centres within
// 12 bohr, every class up to (dd|dd), depths 1 to 3, and one time in four
// each of three patterns of shared centres.
func randomQuartet(seed int64) [4]*Shell {
	rng := rand.New(rand.NewSource(seed))
	var sh [4]*Shell
	for i := range sh {
		depth := 1 + rng.Intn(3)
		s := &Shell{L: rng.Intn(3), Center: Vec3{
			X: 12 * (rng.Float64() - 0.5), Y: 12 * (rng.Float64() - 0.5), Z: 12 * (rng.Float64() - 0.5)}}
		for k := 0; k < depth; k++ {
			s.Exps = append(s.Exps, 0.05*math.Pow(1e5, rng.Float64()))
			s.Coefs = append(s.Coefs, 2*rng.Float64()-1)
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
		want := append([]float64(nil), ERIBlockPairInto(bra, ket, &exact)...)
		budget := primBudget(1e-10)
		got := ERIBlockPairInto(bra, ket, &ERIScratch{budget: budget})
		for e, w := range want {
			// The budget, plus rounding: the kept terms are summed in the
			// same order as the exact block's.
			if d := math.Abs(got[e] - w); d > budget+1e-15*math.Max(1, math.Abs(w)) {
				t.Fatalf("element %d: %.17g on a budget of %g, exact %.17g: off by %g",
					e, got[e], budget, w, d)
			}
		}
	})
}
