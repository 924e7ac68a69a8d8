package chem

import (
	"math"
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
	if got := ds.Trace(); math.Abs(got-float64(mol.NumElectrons())) > 1e-6 {
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

// A custom FockBuilder must be invoked and its result used.
func TestSCFCustomBuilder(t *testing.T) {
	mol := H2(1.4)
	bs := mustBasis(t, "sto-3g", mol)
	calls := 0
	builder := func(w *FockWorkload, h, d *linalg.Matrix) *linalg.Matrix {
		calls++
		return w.BuildFock(h, d)
	}
	res, err := RunSCF(mol, bs, SCFOptions{}, builder)
	if err != nil {
		t.Fatal(err)
	}
	if calls != res.Iterations {
		t.Errorf("builder called %d times over %d iterations", calls, res.Iterations)
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
// counted.
func TestExecuteTaskQuartetCount(t *testing.T) {
	bs := mustBasis(t, "sto-3g", WaterCluster(2, 1))
	w := BuildFockWorkload(bs, 1e-10, 4)
	n := bs.NBF
	d := linalg.Identity(n)
	scratch := w.NewScratch()
	for i := range w.Tasks {
		j := linalg.NewMatrix(n, n)
		k := linalg.NewMatrix(n, n)
		got := w.ExecuteTaskScratch(&w.Tasks[i], d, j, k, scratch)
		if got != w.Tasks[i].NumQuarts {
			t.Fatalf("task %d executed %d quartets, estimated %d", i, got, w.Tasks[i].NumQuarts)
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
