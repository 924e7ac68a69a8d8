package chem

import (
	"math"
	"slices"
	"strings"
	"testing"

	"execmodels/internal/linalg"
)

// referenceFock contracts the dense ERI tensor directly:
// F = H + Σ_{λσ} D_{λσ} [(μν|λσ) - ½(μλ|νσ)].
func referenceFock(bs *BasisSet, eri []float64, h, d *linalg.Matrix) *linalg.Matrix {
	n := bs.NBF
	f := h.Clone()
	for mu := 0; mu < n; mu++ {
		for nu := 0; nu < n; nu++ {
			var g float64
			for lam := 0; lam < n; lam++ {
				for sig := 0; sig < n; sig++ {
					j := eri[((mu*n+nu)*n+lam)*n+sig]
					k := eri[((mu*n+lam)*n+nu)*n+sig]
					g += d.At(lam, sig) * (j - 0.5*k)
				}
			}
			f.Add(mu, nu, g)
		}
	}
	return f
}

// FullERITensor builds the dense two-electron-integral tensor (μν|λσ)
// over all basis functions, by brute force over every ordered shell
// quartet. It is O(N⁴) memory and intended for small systems: the dense
// Fock-build oracle referenceFock contracts it.
func FullERITensor(bs *BasisSet) []float64 {
	n := bs.NBF
	eri := make([]float64, n*n*n*n)
	for ia := range bs.Shells {
		for ib := range bs.Shells {
			for ic := range bs.Shells {
				for id := range bs.Shells {
					a, b, c, d := &bs.Shells[ia], &bs.Shells[ib], &bs.Shells[ic], &bs.Shells[id]
					blk := ERIBlock(a, b, c, d)
					na, nb, nc, nd := a.NumFuncs(), b.NumFuncs(), c.NumFuncs(), d.NumFuncs()
					for fa := 0; fa < na; fa++ {
						for fb := 0; fb < nb; fb++ {
							for fc := 0; fc < nc; fc++ {
								for fd := 0; fd < nd; fd++ {
									mu, nu := a.Start+fa, b.Start+fb
									lam, sig := c.Start+fc, d.Start+fd
									eri[((mu*n+nu)*n+lam)*n+sig] = blk[((fa*nb+fb)*nc+fc)*nd+fd]
								}
							}
						}
					}
				}
			}
		}
	}
	return eri
}

// The optimized, screened, permutation-symmetric Fock build must agree
// with the brute-force contraction.
func TestBuildFockMatchesReference(t *testing.T) {
	for _, mol := range []*Molecule{H2(1.4), Water()} {
		bs := mustBasis(t, "sto-3g", mol)
		eri := FullERITensor(bs)
		h := CoreHamiltonian(bs, mol)

		// A plausible density: from the core guess.
		s := Overlap(bs)
		x := linalg.InvSqrtSym(s, 1e-10)
		d, _, _ := densityFromFock(h, x, mol.NumElectrons()/2, 2)

		w := BuildFockWorkload(bs, 1e-14, 3)
		got := w.BuildFock(h, d)
		want := referenceFock(bs, eri, h, d)
		if diff := got.MaxAbsDiff(want); diff > 1e-8 {
			t.Errorf("%s: Fock mismatch %v", mol.Name, diff)
		}
	}
}

// H2/STO-3G at R = 1.4 bohr: E_RHF ≈ -1.1167 hartree (Szabo & Ostlund).
func TestSCFH2(t *testing.T) {
	mol := H2(1.4)
	bs := mustBasis(t, "sto-3g", mol)
	res, err := RunSCF(mol, bs, SCFOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("SCF did not converge in %d iterations", res.Iterations)
	}
	if math.Abs(res.Energy-(-1.1167)) > 2e-3 {
		t.Errorf("E(H2) = %.6f, want ≈ -1.1167", res.Energy)
	}
	// Occupied orbital energy ≈ -0.578 hartree.
	if math.Abs(res.OrbitalE[0]-(-0.578)) > 5e-3 {
		t.Errorf("ε1 = %.4f, want ≈ -0.578", res.OrbitalE[0])
	}
}

// H2O/STO-3G near its experimental geometry: E_RHF ≈ -74.96 hartree.
func TestSCFWater(t *testing.T) {
	mol := Water()
	bs := mustBasis(t, "sto-3g", mol)
	res, err := RunSCF(mol, bs, SCFOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("SCF did not converge in %d iterations", res.Iterations)
	}
	if res.Energy > -74.8 || res.Energy < -75.1 {
		t.Errorf("E(H2O) = %.6f, want ≈ -74.96", res.Energy)
	}
}

func TestSCFOddElectronsRejected(t *testing.T) {
	mol := &Molecule{Name: "H", Atoms: []Atom{{Z: 1}}}
	bs := mustBasis(t, "sto-3g", mol)
	if _, err := RunSCF(mol, bs, SCFOptions{}, nil); err == nil {
		t.Fatal("expected error for odd electron count")
	}
}

// A charge that removes every electron is refused by both entry points:
// H2 at +4 used to "converge" in two iterations on the nuclear repulsion
// alone, with -1 occupied orbitals.
func TestSCFNoElectronsRejected(t *testing.T) {
	for _, charge := range []int{2, 4} {
		mol := H2(1.4)
		mol.Charge = charge
		bs := mustBasis(t, "sto-3g", mol)
		if _, err := RunSCF(mol, bs, SCFOptions{}, nil); err == nil {
			t.Errorf("RunSCF accepted H2 at charge +%d", charge)
		}
		if _, err := RunUHF(mol, bs, UHFOptions{}); err == nil {
			t.Errorf("RunUHF accepted H2 at charge +%d", charge)
		}
	}
}

// Both entry points refuse a negative size before any work, where the
// workload would panic on the block size, run no iteration, or turn
// screening off. Zero still means the default (TestSCFH2).
func TestSCFNegativeSizesRejected(t *testing.T) {
	mol := H2(1.4)
	bs := mustBasis(t, "sto-3g", mol)
	for _, c := range []struct {
		name           string
		maxIter, block int
		screen         float64
	}{
		{"MaxIter", -1, 0, 0},
		{"BlockSize", 0, -1, 0},
		{"Screening", 0, 0, -1},
	} {
		if _, err := RunSCF(mol, bs, SCFOptions{MaxIter: c.maxIter, BlockSize: c.block, Screening: c.screen}, nil); err == nil || !strings.Contains(err.Error(), c.name) {
			t.Errorf("RunSCF with a negative %s: err = %v", c.name, err)
		}
		if _, err := RunUHF(mol, bs, UHFOptions{MaxIter: c.maxIter, BlockSize: c.block, Screening: c.screen}); err == nil || !strings.Contains(err.Error(), c.name) {
			t.Errorf("RunUHF with a negative %s: err = %v", c.name, err)
		}
	}
}

// Screening must not change the energy beyond its threshold scale.
func TestSCFScreeningConsistency(t *testing.T) {
	mol := WaterCluster(2, 5)
	bs := mustBasis(t, "sto-3g", mol)
	tight, err := RunSCF(mol, bs, SCFOptions{Screening: 1e-14}, nil)
	if err != nil {
		t.Fatal(err)
	}
	loose, err := RunSCF(mol, bs, SCFOptions{Screening: 1e-7}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if diff := math.Abs(tight.Energy - loose.Energy); diff > 1e-4 {
		t.Errorf("screening changed energy by %v", diff)
	}
}

// The density matrix must satisfy Tr(D·S) = number of electrons.
func TestSCFDensityTrace(t *testing.T) {
	mol := Water()
	bs := mustBasis(t, "sto-3g", mol)
	res, err := RunSCF(mol, bs, SCFOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	s := Overlap(bs)
	ds := linalg.MatMul(res.D, s)
	var got float64
	for i := 0; i < ds.Rows; i++ {
		got += ds.At(i, i)
	}
	if math.Abs(got-float64(mol.NumElectrons())) > 1e-6 {
		t.Errorf("Tr(DS) = %v, want %d", got, mol.NumElectrons())
	}
}

// Damping must not change the converged answer.
func TestSCFDampingSameFixedPoint(t *testing.T) {
	mol := H2(1.4)
	bs := mustBasis(t, "sto-3g", mol)
	plain, _ := RunSCF(mol, bs, SCFOptions{}, nil)
	damped, _ := RunSCF(mol, bs, SCFOptions{Damping: 0.3, MaxIter: 200}, nil)
	if !plain.Converged || !damped.Converged {
		t.Fatal("one of the runs did not converge")
	}
	if math.Abs(plain.Energy-damped.Energy) > 1e-7 {
		t.Errorf("damped %.9f vs plain %.9f", damped.Energy, plain.Energy)
	}
}

// A custom FockBuilder must be invoked and its result used, once per
// iteration. On two waters the run starts from the fragment guess, whose
// SCFs never reach the caller's builder: its first density holds N_e
// electrons and couples no two fragments.
func TestSCFCustomBuilder(t *testing.T) {
	for _, tc := range []struct {
		name string
		mol  *Molecule
		opts SCFOptions
	}{
		{"H2", H2(1.4), SCFOptions{}},
		{"waters2", WaterCluster(2, 7), SCFOptions{UseDIIS: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bs := mustBasis(t, "sto-3g", tc.mol)
			calls := 0
			var first *linalg.Matrix
			builder := func(w *FockWorkload, h, d *linalg.Matrix) *linalg.Matrix {
				if calls++; calls == 1 {
					first = d.Clone()
				}
				return w.BuildFock(h, d)
			}
			res, err := RunSCF(tc.mol, bs, tc.opts, builder)
			if err != nil || !res.Converged {
				t.Fatalf("RunSCF: converged %v, %v", res != nil && res.Converged, err)
			}
			if calls != res.Iterations {
				t.Errorf("builder called %d times over %d iterations", calls, res.Iterations)
			}
			if first.Rows != bs.NBF {
				t.Fatalf("first density is %d×%d, want %d×%d", first.Rows, first.Cols, bs.NBF, bs.NBF)
			}
			ds := linalg.MatMul(first, Overlap(bs))
			var ne float64
			for i := 0; i < ds.Rows; i++ {
				ne += ds.At(i, i)
			}
			if math.Abs(ne-float64(tc.mol.NumElectrons())) > 1e-10 {
				t.Errorf("first density: tr(D·S) = %.12f, want %d", ne, tc.mol.NumElectrons())
			}
			frag := make([]int, bs.NBF) // the fragment a basis function sits on
			for k, f := range fragments(tc.mol) {
				for _, sh := range bs.Shells {
					if slices.Contains(f, sh.Atom) {
						for i := range sh.NumFuncs() {
							frag[sh.Start+i] = k
						}
					}
				}
			}
			for i := range bs.NBF {
				for j := range bs.NBF {
					if frag[i] != frag[j] && first.At(i, j) != 0 {
						t.Fatalf("first density couples two fragments: D[%d,%d] = %g", i, j, first.At(i, j))
					}
				}
			}
		})
	}
}

func TestWorkloadTaskPartition(t *testing.T) {
	bs := mustBasis(t, "sto-3g", WaterCluster(2, 1))
	w := BuildFockWorkload(bs, 1e-10, 4)
	var pairCount int
	for _, task := range w.Tasks {
		pairCount += len(task.BraPairs)
	}
	if pairCount != len(w.Pairs) {
		t.Fatalf("tasks cover %d pairs, workload has %d", pairCount, len(w.Pairs))
	}
	for i, task := range w.Tasks {
		if task.ID != i {
			t.Fatalf("task %d has ID %d", i, task.ID)
		}
		if task.EstFlops <= 0 && task.NumQuarts > 0 {
			t.Fatalf("task %d has quartets but no cost", i)
		}
	}
}

// ExecuteTaskScratch must compute exactly the quartets the cost model
// counted on an exact scratch, and on a Fock build's scratch those of
// them the density rule does not skip.
func TestExecuteTaskQuartetCount(t *testing.T) {
	bs := mustBasis(t, "sto-3g", WaterCluster(2, 1))
	w := BuildFockWorkload(bs, 1e-10, 4)
	n := bs.NBF
	d := linalg.Identity(n)
	for _, scratch := range []*ERIScratch{NewERIScratch(bs), w.NewScratch()} {
		var skipped int
		for i := range w.Tasks {
			j := linalg.NewMatrix(n, n)
			k := linalg.NewMatrix(n, n)
			task := &w.Tasks[i]
			got := w.ExecuteTaskScratch(task, d, j, k, scratch)
			want, _ := densityRule(w, task, d, []*linalg.Matrix{d}, scratch.budget)
			if scratch.budget == 0 && want != task.NumQuarts {
				t.Fatalf("task %d: the exact rule keeps %d quartets, estimated %d", i, want, task.NumQuarts)
			}
			if got != want {
				t.Fatalf("budget %g, task %d executed %d quartets of %d estimated, want %d",
					scratch.budget, i, got, task.NumQuarts, want)
			}
			skipped += task.NumQuarts - got
		}
		if scratch.budget > 0 && skipped == 0 {
			t.Errorf("the density rule skipped no quartet of the identity density")
		}
	}
}

// Task costs of a realistic workload must be irregular: the paper's whole
// premise is a heavy-tailed task-cost distribution.
func TestWorkloadCostIrregularity(t *testing.T) {
	bs := mustBasis(t, "6-31g", WaterCluster(2, 3))
	w := BuildFockWorkload(bs, 1e-10, 2)
	if im := w.CostImbalance(); im < 1.5 {
		t.Errorf("max/mean task cost = %v; expected an irregular workload", im)
	}
	var flops float64
	for _, task := range w.Tasks {
		flops += task.EstFlops
	}
	if flops <= 0 {
		t.Error("summed task flop estimate must be positive")
	}
}

func TestBuildFockWorkloadBadBlockSize(t *testing.T) {
	bs := mustBasis(t, "sto-3g", H2(1.4))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	BuildFockWorkload(bs, 1e-10, 0)
}

// DIIS must reach the same fixed point as plain iteration, in no more
// iterations.
func TestDIISMatchesPlainSCF(t *testing.T) {
	mol := Water()
	bs := mustBasis(t, "sto-3g", mol)
	plain, err := RunSCF(mol, bs, SCFOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	diis, err := RunSCF(mol, bs, SCFOptions{UseDIIS: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !plain.Converged || !diis.Converged {
		t.Fatal("convergence failure")
	}
	if math.Abs(plain.Energy-diis.Energy) > 1e-7 {
		t.Errorf("DIIS energy %v vs plain %v", diis.Energy, plain.Energy)
	}
	if diis.Iterations > plain.Iterations {
		t.Errorf("DIIS took %d iterations vs plain %d", diis.Iterations, plain.Iterations)
	}
}

// The polarized 6-31G* basis must build, include d shells, and lower the
// water energy below 6-31G (variational principle with a larger basis).
func TestSixThreeOneStar(t *testing.T) {
	mol := Water()
	bsPlain := mustBasis(t, "6-31g", mol)
	bsStar := mustBasis(t, "6-31g*", mol)
	if bsStar.NBF != bsPlain.NBF+6 {
		t.Fatalf("6-31g* NBF = %d, want %d+6", bsStar.NBF, bsPlain.NBF)
	}
	var hasD bool
	for _, sh := range bsStar.Shells {
		if sh.L == 2 {
			hasD = true
		}
	}
	if !hasD {
		t.Fatal("no d shell in 6-31g*")
	}
	plain, err := RunSCF(mol, bsPlain, SCFOptions{UseDIIS: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	star, err := RunSCF(mol, bsStar, SCFOptions{UseDIIS: true, MaxIter: 80}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !plain.Converged || !star.Converged {
		t.Fatalf("convergence: 6-31g %v, 6-31g* %v", plain.Converged, star.Converged)
	}
	if star.Energy >= plain.Energy {
		t.Errorf("6-31g* energy %v not below 6-31g %v", star.Energy, plain.Energy)
	}
	// 6-31G water ≈ -75.98; 6-31G* ≈ -76.01 hartree.
	if plain.Energy > -75.8 || plain.Energy < -76.2 {
		t.Errorf("E(6-31g) = %v implausible", plain.Energy)
	}
	if star.Energy > -75.9 || star.Energy < -76.2 {
		t.Errorf("E(6-31g*) = %v implausible", star.Energy)
	}
}

// d-shell integrals must satisfy the same Fock-build oracle as s/p.
func TestFockOracleWithDShells(t *testing.T) {
	// A single oxygen atom in 6-31g*: small enough for the O(N⁴) oracle.
	mol := &Molecule{Name: "O", Atoms: []Atom{{Z: 8}}}
	bs := mustBasis(t, "6-31g*", mol)
	eri := FullERITensor(bs)
	h := CoreHamiltonian(bs, mol)
	s := Overlap(bs)
	x := linalg.InvSqrtSym(s, 1e-10)
	d, _, _ := densityFromFock(h, x, 4, 2)
	w := BuildFockWorkload(bs, 1e-14, 3)
	got := w.BuildFock(h, d)
	want := referenceFock(bs, eri, h, d)
	if diff := got.MaxAbsDiff(want); diff > 1e-8 {
		t.Errorf("d-shell Fock mismatch %v", diff)
	}
}
