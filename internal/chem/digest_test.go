package chem

import (
	"math"
	"math/rand"
	"testing"

	"execmodels/internal/linalg"
)

// checkDigestQuartet digests the ERI block of the quartet q of bs through
// digestQuartet and through digestUniqueQuartet, its 8-permutation
// oracle, against random densities that are not symmetric, and requires
// every J and K element to agree within 1e-14 of the largest element of
// its matrix, taken as at least 1e-280: below float64's normal range
// rounding is absolute, not relative. It runs three shapes: RHF's, with
// the one exchange density the Coulomb one; one exchange density of its
// own; and UHF's two.
func checkDigestQuartet(t *testing.T, bs *BasisSet, q [4]int, rng *rand.Rand) {
	t.Helper()
	sh := bs.Shells
	blk := ERIBlock(&sh[q[0]], &sh[q[1]], &sh[q[2]], &sh[q[3]])
	n := bs.NBF
	random := func() *linalg.Matrix {
		d := linalg.NewMatrix(n, n)
		for i := range d.Data {
			d.Data[i] = 2*rng.Float64() - 1
		}
		return d
	}
	dj, dA, dB := random(), random(), random()
	for _, dks := range [][]*linalg.Matrix{{dj}, {dA}, {dA, dB}} {
		want := make([]*linalg.Matrix, 1+len(dks))
		got := make([]*linalg.Matrix, 1+len(dks))
		for i := range want {
			want[i], got[i] = linalg.NewMatrix(n, n), linalg.NewMatrix(n, n)
		}
		digestUniqueQuartet(want[0], dj, want[1:], dks, sh, q[0], q[1], q[2], q[3], blk)
		digestQuartet(got[0], dj, got[1:], dks, sh, q[0], q[1], q[2], q[3], blk)
		for m := range want {
			var scale float64
			for _, v := range want[m].Data {
				scale = math.Max(scale, math.Abs(v))
			}
			if d := want[m].MaxAbsDiff(got[m]); d > 1e-14*math.Max(scale, 1e-280) {
				t.Fatalf("quartet %v, %d exchange densities, matrix %d (0 is J): off by %g of %g",
					q, len(dks), m, d, scale)
			}
		}
	}
}

// digestQuartet must add exactly the terms of the distinct permutations
// the closure-based digest enumerates, for every combination of the three
// flags it weighs them by — a≠b, c≠d and bra≠ket — on s, p and d shells
// (water's 6-31G*: shells 0, 1, 3 and 6–9 are s, 2 and 4 p, 5 d). With
// a ≤ b and c ≤ d, bra = ket forces a = b and c = d together, so "bra =
// ket with a = b" is the all-four-equal case. Quartets that share a shell
// between bra and ket without bra = ket keep all eight permutations.
func TestDigestQuartetMatchesPermutations(t *testing.T) {
	bs := mustBasis(t, "6-31g*", Water())
	rng := rand.New(rand.NewSource(1))
	for _, tc := range []struct {
		name     string
		quartets [][4]int
	}{
		{"all distinct", [][4]int{{1, 2, 3, 4}, {0, 5, 2, 6}, {2, 4, 5, 7}}},
		{"a=b", [][4]int{{2, 2, 1, 4}, {5, 5, 0, 2}, {0, 0, 2, 5}}},
		{"c=d", [][4]int{{1, 2, 4, 4}, {0, 5, 2, 2}, {2, 4, 5, 5}}},
		{"a=b, c=d", [][4]int{{2, 2, 4, 4}, {5, 5, 2, 2}, {0, 0, 6, 6}}},
		{"bra=ket", [][4]int{{1, 2, 1, 2}, {2, 5, 2, 5}, {0, 6, 0, 6}}},
		{"all four equal", [][4]int{{0, 0, 0, 0}, {2, 2, 2, 2}, {5, 5, 5, 5}}},
		{"shared shell, bra≠ket", [][4]int{{2, 4, 2, 5}, {1, 2, 2, 4}, {2, 5, 5, 5}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, q := range tc.quartets {
				checkDigestQuartet(t, bs, q, rng)
			}
		})
	}
}

// FuzzDigestQuartet runs checkDigestQuartet on randomQuartet's four
// shells taken as a basis of their own, with shell indices drawn at
// random, so that any two of a quartet's shells may coincide; each pair
// is ordered (a ≤ b, c ≤ d), as every stored shell pair is.
func FuzzDigestQuartet(f *testing.F) {
	f.Add(int64(1))
	f.Add(int64(7))
	f.Add(int64(-42))
	f.Add(int64(526)) // a block of subnormal integrals
	f.Fuzz(func(t *testing.T, seed int64) {
		bs := &BasisSet{Name: "fuzz"}
		for _, sh := range randomQuartet(seed) {
			sh.Start = bs.NBF
			bs.NBF += sh.NumFuncs()
			bs.Shells = append(bs.Shells, *sh)
		}
		rng := rand.New(rand.NewSource(seed))
		var q [4]int
		for i := range q {
			q[i] = rng.Intn(len(bs.Shells))
		}
		q[0], q[1] = min(q[0], q[1]), max(q[0], q[1])
		q[2], q[3] = min(q[2], q[3]), max(q[2], q[3])
		checkDigestQuartet(t, bs, q, rng)
	})
}
