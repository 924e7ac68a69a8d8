package chem

import (
	"testing"

	"execmodels/internal/linalg"
)

// canonicalQuartet maps an ordered shell quartet to the canonical
// representative its 8-fold symmetry orbit is enumerated under: each
// pair sorted ascending, the pair with the larger triangular index in
// bra position. This is the test's independent re-derivation of the
// ordering BuildFockWorkload uses (bra pair position >= ket pair
// position over pairs sorted by pairIndex).
func canonicalQuartet(a, b, c, d int) [4]int {
	if a > b {
		a, b = b, a
	}
	if c > d {
		c, d = d, c
	}
	if pairIndex(a, b) < pairIndex(c, d) {
		a, b, c, d = c, d, a, b
	}
	return [4]int{a, b, c, d}
}

// The unique-quartet enumerator must emit each canonical quartet exactly
// once across all tasks, and the degeneracy weights (distinct
// permutations per canonical quartet) must sum to N^4 — the count
// identity proving the 8-fold folding covers every ordered quartet
// exactly once. Screening is disabled (threshold 0) so the identity is
// exact.
func TestUniqueQuartetEnumeration(t *testing.T) {
	for _, tc := range []struct {
		name  string
		mol   *Molecule
		basis string
	}{
		{"h2/sto-3g", H2(1.4), "sto-3g"},
		{"water/sto-3g", Water(), "sto-3g"},
		{"water/6-31g", Water(), "6-31g"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bs, err := NewBasis(tc.basis, tc.mol)
			if err != nil {
				t.Fatal(err)
			}
			w := BuildFockWorkload(bs, 0, 3)
			n := len(bs.Shells)

			// Collect the enumerated quartets from the generation-time
			// Kets lists; every canonical quartet must appear exactly once.
			seen := map[[4]int]bool{}
			var degeneracySum int
			for _, task := range w.Tasks {
				for bi, bra := range task.BraPairs {
					for _, ki := range task.Kets[bi] {
						ket := w.Pairs[ki]
						q := [4]int{bra.I, bra.J, ket.I, ket.J}
						if q != canonicalQuartet(q[0], q[1], q[2], q[3]) {
							t.Fatalf("task %d emits non-canonical quartet %v", task.ID, q)
						}
						if seen[q] {
							t.Fatalf("quartet %v enumerated twice", q)
						}
						seen[q] = true
						degeneracySum += len(quartetPermutations(q[0], q[1], q[2], q[3]))
					}
				}
			}

			// Brute force: every ordered quartet's canonical form must have
			// been enumerated, and nothing else.
			want := map[[4]int]bool{}
			for a := 0; a < n; a++ {
				for b := 0; b < n; b++ {
					for c := 0; c < n; c++ {
						for d := 0; d < n; d++ {
							want[canonicalQuartet(a, b, c, d)] = true
						}
					}
				}
			}
			if len(seen) != len(want) {
				t.Errorf("enumerated %d unique quartets, brute force finds %d", len(seen), len(want))
			}
			for q := range want {
				if !seen[q] {
					t.Errorf("canonical quartet %v never enumerated", q)
				}
			}
			if n4 := n * n * n * n; degeneracySum != n4 {
				t.Errorf("degeneracy weights sum to %d, want N^4 = %d", degeneracySum, n4)
			}
			if st := w.Stats(); st.Surviving != int64(len(seen)) || st.UniqueQuartets != int64(len(want)) {
				t.Errorf("Stats() = %+v, want Surviving=%d UniqueQuartets=%d", st, len(seen), len(want))
			}
		})
	}
}

// naiveJK accumulates J and the given exchange matrices over every
// ordered shell quartet of the basis — the quadruple loop with no
// permutational symmetry and no screening. Each ordered quartet's block
// is computed independently by ERIBlock and digested once with the
// identity permutation, so the 8-fold folding never enters.
func naiveJK(bs *BasisSet, dj *linalg.Matrix, dks []*linalg.Matrix, j *linalg.Matrix, ks []*linalg.Matrix) {
	sh := bs.Shells
	for ia := range sh {
		for ib := range sh {
			for ic := range sh {
				for id := range sh {
					a, b, c, d := &sh[ia], &sh[ib], &sh[ic], &sh[id]
					blk := ERIBlock(a, b, c, d)
					nb, nc, nd := b.NumFuncs(), c.NumFuncs(), d.NumFuncs()
					digestJK(j, dj, ks, dks, a, b, c, d, func(fa, fb, fc, fd int) float64 {
						return blk[((fa*nb+fb)*nc+fc)*nd+fd]
					})
				}
			}
		}
	}
}

// BuildFockNaive computes F = H + J − K/2 by the naive quadruple shell
// loop: every ordered quartet (N⁴ of them) computed once, no symmetry
// folding, no Schwarz screening. It is the semantic ground truth for the
// symmetric screened build (equal to a threshold-0 BuildFock up to
// floating-point accumulation order). Cost is ~8× the symmetric build
// before screening even starts — small systems only.
func BuildFockNaive(bs *BasisSet, h, d *linalg.Matrix) *linalg.Matrix {
	n := bs.NBF
	j := linalg.NewMatrix(n, n)
	k := linalg.NewMatrix(n, n)
	naiveJK(bs, d, []*linalg.Matrix{d}, j, []*linalg.Matrix{k})
	return assembleFock(h, j, k, 0.5)
}

// NaiveSpinJK is the unrestricted naive reference: J contracted against
// the total density and per-spin exchange matrices against dA/dB, over
// every ordered quartet with no symmetry or screening.
func NaiveSpinJK(bs *BasisSet, dTot, dA, dB *linalg.Matrix) (j, kA, kB *linalg.Matrix) {
	n := bs.NBF
	j = linalg.NewMatrix(n, n)
	kA = linalg.NewMatrix(n, n)
	kB = linalg.NewMatrix(n, n)
	naiveJK(bs, dTot, []*linalg.Matrix{dA, dB}, j, []*linalg.Matrix{kA, kB})
	return j, kA, kB
}

// The symmetric screened build must agree with the symmetry-free,
// unscreened quadruple loop. Threshold 0 removes screening from the
// comparison, so the only difference is the 8-fold folding — the classic
// source of J/K digestion bugs this pins down.
func TestSymmetricFockMatchesNaive(t *testing.T) {
	for _, tc := range []struct {
		name string
		mol  *Molecule
	}{
		{"h2", H2(1.4)},
		{"water", Water()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bs, err := NewBasis("sto-3g", tc.mol)
			if err != nil {
				t.Fatal(err)
			}
			h := CoreHamiltonian(bs, tc.mol)
			d := testDensity(bs, tc.mol, h)
			w := BuildFockWorkload(bs, 0, 2)
			fast := w.BuildFock(h, d)
			naive := BuildFockNaive(bs, h, d)
			if diff := fast.MaxAbsDiff(naive); diff > 1e-11 {
				t.Errorf("symmetric Fock differs from naive quadruple loop by %g", diff)
			}
		})
	}
}

// Unrestricted variant of the naive cross-check: the spin digest must
// scatter both exchange matrices into all symmetric slots correctly.
func TestSymmetricSpinJKMatchesNaive(t *testing.T) {
	mol := Water()
	bs, err := NewBasis("sto-3g", mol)
	if err != nil {
		t.Fatal(err)
	}
	h := CoreHamiltonian(bs, mol)
	dA := testDensity(bs, mol, h)
	dA.Scale(0.5)
	dB := dA.Clone()
	dB.Scale(0.8) // asymmetric spins so Kα and Kβ genuinely differ
	dTot := dA.Clone()
	dTot.AddScaled(1, dB)

	w := BuildFockWorkload(bs, 0, 3)
	n := bs.NBF
	j := linalg.NewMatrix(n, n)
	kA := linalg.NewMatrix(n, n)
	kB := linalg.NewMatrix(n, n)
	s := w.NewScratch()
	for i := range w.Tasks {
		w.ExecuteTaskSpinScratch(&w.Tasks[i], dTot, dA, dB, j, kA, kB, s)
	}
	jN, kAN, kBN := NaiveSpinJK(bs, dTot, dA, dB)
	if diff := j.MaxAbsDiff(jN); diff > 1e-11 {
		t.Errorf("J differs from naive by %g", diff)
	}
	if diff := kA.MaxAbsDiff(kAN); diff > 1e-11 {
		t.Errorf("Kα differs from naive by %g", diff)
	}
	if diff := kB.MaxAbsDiff(kBN); diff > 1e-11 {
		t.Errorf("Kβ differs from naive by %g", diff)
	}
	if same := kA.MaxAbsDiff(kB); same < 1e-14 {
		t.Fatalf("test is vacuous: Kα == Kβ (diff %g)", same)
	}
}

// The spin baseline executor (in-worker screening, closure digest,
// term-by-term ERI loop nest) and the arena spin path (generation-time
// screening, stride digest, factored ERI kernel) select and digest the
// same quartets in the same order; the ERI blocks differ by summation
// order only, so J, Kα and Kβ agree to 1e-12.
func TestExecuteTaskSpinBaselineMatchesScratch(t *testing.T) {
	w, d := arenaWorkload(t)
	n := w.Basis.NBF
	dB := d.Clone()
	dB.Scale(0.7)
	dTot := d.Clone()
	dTot.AddScaled(1, dB)
	s := w.NewScratch()
	for i := range w.Tasks {
		jF := linalg.NewMatrix(n, n)
		kAF := linalg.NewMatrix(n, n)
		kBF := linalg.NewMatrix(n, n)
		jB := linalg.NewMatrix(n, n)
		kAB := linalg.NewMatrix(n, n)
		kBB := linalg.NewMatrix(n, n)
		doneF := w.ExecuteTaskSpinScratch(&w.Tasks[i], dTot, d, dB, jF, kAF, kBF, s)
		doneB := w.ExecuteTaskSpinBaseline(&w.Tasks[i], dTot, d, dB, jB, kAB, kBB)
		if doneF != doneB {
			t.Fatalf("task %d: %d quartets (scratch) vs %d (baseline)", i, doneF, doneB)
		}
		if diff := jF.MaxAbsDiff(jB); diff > 1e-12 {
			t.Errorf("task %d: J differs from spin baseline by %g", i, diff)
		}
		if diff := kAF.MaxAbsDiff(kAB); diff > 1e-12 {
			t.Errorf("task %d: Kα differs from spin baseline by %g", i, diff)
		}
		if diff := kBF.MaxAbsDiff(kBB); diff > 1e-12 {
			t.Errorf("task %d: Kβ differs from spin baseline by %g", i, diff)
		}
	}
}

// Reblocking regroups bra pairs into different task shapes but must not
// change the quartet multiset or the serial digestion order — the same
// global bra-major sweep, so serial results are bit-identical and the
// surviving-quartet count is invariant.
func TestReblockEquivalence(t *testing.T) {
	w, d := arenaWorkload(t)
	n := w.Basis.NBF
	h := linalg.NewMatrix(n, n)
	want := w.BuildFock(h, d)
	wantQuarts := w.Stats().Surviving
	for _, block := range []int{1, 2, 7, 1 << 20} {
		rw := w.Reblock(block)
		if got := rw.Stats().Surviving; got != wantQuarts {
			t.Errorf("block %d: %d surviving quartets, want %d", block, got, wantQuarts)
		}
		if got := rw.BuildFock(h, d); got.MaxAbsDiff(want) != 0 {
			t.Errorf("block %d: reblocked serial Fock differs by %g", block, got.MaxAbsDiff(want))
		}
		wantTasks := (len(w.Pairs) + block - 1) / block
		if len(rw.Tasks) != wantTasks {
			t.Errorf("block %d: %d tasks, want %d", block, len(rw.Tasks), wantTasks)
		}
	}
}

// The generation-time Kets lists must select exactly the quartets the
// retained baseline's in-worker bound test selects — screening moved,
// not changed.
func TestKetsMatchInWorkerScreening(t *testing.T) {
	w, _ := arenaWorkload(t)
	for _, task := range w.Tasks {
		for bi, bra := range task.BraPairs {
			var want []int32
			for ki := 0; ki <= task.PairOffset+bi; ki++ {
				if bra.Bound*w.Pairs[ki].Bound >= w.Threshold {
					want = append(want, int32(ki))
				}
			}
			got := task.Kets[bi]
			if len(got) != len(want) {
				t.Fatalf("task %d bra %d: %d kets, want %d", task.ID, bi, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("task %d bra %d ket %d: pair %d, want %d", task.ID, bi, i, got[i], want[i])
				}
			}
		}
	}
}

// Workload statistics must reflect the ~8-fold symmetry reduction: the
// canonical quartet count is M(M+1)/2 for M = N(N+1)/2 pairs, and
// screening can only shrink it further.
func TestWorkloadStats(t *testing.T) {
	mol := WaterCluster(2, 11)
	bs, err := NewBasis("sto-3g", mol)
	if err != nil {
		t.Fatal(err)
	}
	w := BuildFockWorkload(bs, 1e-10, 4)
	st := w.Stats()
	n := int64(len(bs.Shells))
	m := n * (n + 1) / 2
	if st.NaiveQuartets != n*n*n*n {
		t.Errorf("NaiveQuartets = %d, want %d", st.NaiveQuartets, n*n*n*n)
	}
	if st.UniqueQuartets != m*(m+1)/2 {
		t.Errorf("UniqueQuartets = %d, want %d", st.UniqueQuartets, m*(m+1)/2)
	}
	// 8-fold symmetry: unique is slightly more than naive/8 because of
	// diagonal (degeneracy < 8) quartets, but always within [n4/8, n4].
	if st.UniqueQuartets < st.NaiveQuartets/8 || st.UniqueQuartets > st.NaiveQuartets {
		t.Errorf("UniqueQuartets %d outside [naive/8, naive] = [%d, %d]",
			st.UniqueQuartets, st.NaiveQuartets/8, st.NaiveQuartets)
	}
	if st.Surviving > st.UniqueQuartets || st.Surviving <= 0 {
		t.Errorf("Surviving = %d outside (0, %d]", st.Surviving, st.UniqueQuartets)
	}
	var sum int64
	for i := range w.Tasks {
		sum += int64(w.Tasks[i].NumQuarts)
	}
	if st.Surviving != sum {
		t.Errorf("Surviving = %d, task NumQuarts sum to %d", st.Surviving, sum)
	}
}

// The accumulator path must match the plain scratch path bitwise for
// both spin shapes, and merging per-worker accumulators must reproduce
// direct accumulation exactly when there is a single accumulator.
func TestExecuteTaskAccumMatchesScratch(t *testing.T) {
	w, d := arenaWorkload(t)
	n := w.Basis.NBF

	// Restricted shape.
	acc := w.NewJKAccum(false)
	jRef, kRef := linalg.NewMatrix(n, n), linalg.NewMatrix(n, n)
	s := w.NewScratch()
	for i := range w.Tasks {
		w.ExecuteTaskAccum(&w.Tasks[i], d, d, nil, acc)
		w.ExecuteTaskScratch(&w.Tasks[i], d, jRef, kRef, s)
	}
	j, k := linalg.NewMatrix(n, n), linalg.NewMatrix(n, n)
	acc.MergeInto(j, k, nil)
	if diff := j.MaxAbsDiff(jRef); diff != 0 {
		t.Errorf("accum J differs by %g", diff)
	}
	if diff := k.MaxAbsDiff(kRef); diff != 0 {
		t.Errorf("accum K differs by %g", diff)
	}

	// Unrestricted shape.
	dB := d.Clone()
	dB.Scale(0.6)
	dTot := d.Clone()
	dTot.AddScaled(1, dB)
	accU := w.NewJKAccum(true)
	jU, kAU, kBU := linalg.NewMatrix(n, n), linalg.NewMatrix(n, n), linalg.NewMatrix(n, n)
	for i := range w.Tasks {
		w.ExecuteTaskAccum(&w.Tasks[i], dTot, d, dB, accU)
		w.ExecuteTaskSpinScratch(&w.Tasks[i], dTot, d, dB, jU, kAU, kBU, s)
	}
	jM, kAM, kBM := linalg.NewMatrix(n, n), linalg.NewMatrix(n, n), linalg.NewMatrix(n, n)
	accU.MergeInto(jM, kAM, kBM)
	if diff := jM.MaxAbsDiff(jU); diff != 0 {
		t.Errorf("spin accum J differs by %g", diff)
	}
	if diff := kAM.MaxAbsDiff(kAU); diff != 0 {
		t.Errorf("spin accum Kα differs by %g", diff)
	}
	if diff := kBM.MaxAbsDiff(kBU); diff != 0 {
		t.Errorf("spin accum Kβ differs by %g", diff)
	}
}

// The accumulator digest path — the wall-clock workers' steady state —
// must preserve the zero-allocation invariant for both spin shapes, and
// on a reblocked workload (pair-block task structs share the screened
// pair data, so no lazily-grown state may hide there).
func TestExecuteTaskAccumZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; gate runs in the non-race pass")
	}
	w, d := arenaWorkload(t)
	dB := d.Clone()
	dB.Scale(0.6)
	dTot := d.Clone()
	dTot.AddScaled(1, dB)
	for _, tc := range []struct {
		name string
		w    *FockWorkload
	}{
		{"as-built", w},
		{"reblocked/b1", w.Reblock(1)},
		{"reblocked/b7", w.Reblock(7)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rhf := tc.w.NewJKAccum(false)
			uhf := tc.w.NewJKAccum(true)
			for i := range tc.w.Tasks {
				tc.w.ExecuteTaskAccum(&tc.w.Tasks[i], d, d, nil, rhf)
				tc.w.ExecuteTaskAccum(&tc.w.Tasks[i], dTot, d, dB, uhf)
			}
			avg := testing.AllocsPerRun(5, func() {
				for i := range tc.w.Tasks {
					tc.w.ExecuteTaskAccum(&tc.w.Tasks[i], d, d, nil, rhf)
					tc.w.ExecuteTaskAccum(&tc.w.Tasks[i], dTot, d, dB, uhf)
				}
			})
			if avg != 0 {
				t.Errorf("ExecuteTaskAccum allocates %.1f times per sweep, want 0", avg)
			}
		})
	}
}

// The UHF builder hook must be invoked and produce the same fixed point
// as the in-loop serial sweep when it wraps the identical computation.
func TestUHFBuilderHook(t *testing.T) {
	mol := Water()
	mol.Charge = 1 // doublet: genuinely unrestricted
	bs, err := NewBasis("sto-3g", mol)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := RunUHF(mol, bs, UHFOptions{})
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	builder := func(w *FockWorkload, dTot, dA, dB *linalg.Matrix) (j, kA, kB *linalg.Matrix) {
		calls++
		n := w.Basis.NBF
		j = linalg.NewMatrix(n, n)
		kA = linalg.NewMatrix(n, n)
		kB = linalg.NewMatrix(n, n)
		s := w.NewScratch()
		for i := range w.Tasks {
			w.ExecuteTaskSpinScratch(&w.Tasks[i], dTot, dA, dB, j, kA, kB, s)
		}
		return j, kA, kB
	}
	res, err := RunUHF(mol, bs, UHFOptions{Builder: builder})
	if err != nil {
		t.Fatal(err)
	}
	if calls == 0 {
		t.Fatal("Builder never invoked")
	}
	if !res.Converged || !ref.Converged {
		t.Fatalf("convergence: builder %v, serial %v", res.Converged, ref.Converged)
	}
	if diff := res.Energy - ref.Energy; diff > 1e-12 || diff < -1e-12 {
		t.Errorf("builder UHF energy %v differs from serial %v", res.Energy, ref.Energy)
	}
}

// testDensity builds a core-guess closed-shell density, mirroring the
// helper the core wall-clock tests use, so differential comparisons see
// realistically structured J/K contractions.
func testDensity(bs *BasisSet, mol *Molecule, h *linalg.Matrix) *linalg.Matrix {
	s := Overlap(bs)
	x := linalg.InvSqrtSym(s, 1e-10)
	d, _, _ := densityFromFock(h, x, mol.NumElectrons()/2, 2)
	return d
}
