package core

import (
	"runtime"
	"testing"

	"execmodels/internal/chem"
	"execmodels/internal/linalg"
)

// The differential equivalence matrix: every wall-clock executor, at
// every worker count and task granularity, must reproduce the serial
// Fock build (chem's BuildFock and its spin sweep) to fockDiffTol.
// chem's TestBuildFockMatchesBaseline holds that serial build to the
// exact test-oracle executor, which screens inside its loop, at the
// same 5e-12 on the same molecules, so every cell stays within 1e-11 of
// the oracle.
const fockDiffTol = 5e-12

// wallDiffExecs is the executor × granularity axis of the matrix.
type wallDiffExec struct {
	name string
	mode string
	opt  WallOptions
}

func wallDiffExecs() []wallDiffExec {
	return []wallDiffExec{
		{"static", "static", WallOptions{}},
		{"dynamic/b1", "dynamic", WallOptions{Block: 1}},
		{"dynamic/b3", "dynamic", WallOptions{Block: 3}},
		{"dynamic/b7", "dynamic", WallOptions{Block: 7}},
		{"stealing", "stealing", WallOptions{Seed: 13}},
	}
}

// wallDiffWorkers is the worker-count axis: serial-on-the-executor,
// a non-divisible oversubscribed count, and the host's real parallelism.
func wallDiffWorkers() []int {
	set := []int{1, 3}
	if n := runtime.NumCPU(); n != 1 && n != 3 {
		set = append(set, n)
	}
	return set
}

// serialSpinJK is the serial unrestricted reference sweep.
func serialSpinJK(fw *chem.FockWorkload, dTot, dA, dB *linalg.Matrix) (j, kA, kB *linalg.Matrix) {
	n := fw.Basis.NBF
	j = linalg.NewMatrix(n, n)
	kA = linalg.NewMatrix(n, n)
	kB = linalg.NewMatrix(n, n)
	s := fw.NewScratch()
	for i := range fw.Tasks {
		fw.ExecuteTaskSpinScratch(&fw.Tasks[i], dTot, dA, dB, j, kA, kB, s)
	}
	return j, kA, kB
}

// spinDelta is the density change one UHF build contracts: the total
// for J and the α and β changes for the two exchange matrices.
type spinDelta struct{ tot, a, b *linalg.Matrix }

// recordDeltas runs one RHF SCF on mol, and one UHF SCF on its ion of
// charge uhfCharge, through recording builders and returns the density
// changes ΔD = D_k − D_{k−1} that build 2 and the last build contracted:
// every build after a run's first is incremental, with a zero H (chem's
// scfLoop). A closed-shell UHF run is not made: on (H2O)4 it repeats the
// RHF run's 11 builds with Dα = Dβ and ΔDα + ΔDβ within 3e-12 of the RHF
// ΔD, so its changes are taken as the RHF ones, halved for each spin.
func recordDeltas(t *testing.T, mol *chem.Molecule, bs *chem.BasisSet, threshold float64, uhfCharge int) ([]*linalg.Matrix, []spinDelta) {
	t.Helper()
	var rhf []*linalg.Matrix
	res, err := chem.RunSCF(mol, bs, chem.SCFOptions{UseDIIS: true, Screening: threshold},
		func(w *chem.FockWorkload, h, d *linalg.Matrix) *linalg.Matrix {
			rhf = append(rhf, d.Clone())
			return w.BuildFock(h, d)
		})
	if err != nil || !res.Converged || len(rhf) < 3 {
		t.Fatalf("RHF: converged %v after %d builds, %v", res != nil && res.Converged, len(rhf), err)
	}
	rhf = []*linalg.Matrix{rhf[1], rhf[len(rhf)-1]}
	var uhf []spinDelta
	if uhfCharge == 0 {
		for _, d := range rhf {
			half := d.Clone()
			half.Scale(0.5)
			uhf = append(uhf, spinDelta{d, half, half})
		}
		return rhf, uhf
	}
	ion := *mol
	ion.Charge = uhfCharge
	ures, err := chem.RunUHF(&ion, bs, chem.UHFOptions{UseDIIS: true, Screening: threshold,
		Builder: func(w *chem.FockWorkload, dTot, dA, dB *linalg.Matrix) (j, kA, kB *linalg.Matrix) {
			uhf = append(uhf, spinDelta{dTot.Clone(), dA.Clone(), dB.Clone()})
			return serialSpinJK(w, dTot, dA, dB)
		}})
	if err != nil || !ures.Converged || len(uhf) < 3 {
		t.Fatalf("UHF: converged %v after %d builds, %v", ures != nil && ures.Converged, len(uhf), err)
	}
	return rhf, []spinDelta{uhf[1], uhf[len(uhf)-1]}
}

// TestWallDifferentialMatrix sweeps {molecule} × {RHF, UHF} × {executor ×
// granularity} × {workers} and holds every cell to the serial build at
// fockDiffTol: at a core-guess density (split ~55/45 into spins for
// UHF), and on water and (H2O)4 also at the density changes of build 2
// and of the last build of an SCF run (recordDeltas), where the
// executor's density rule skips the most. Screening thresholds are
// chosen per molecule so the large systems stay affordable while still
// pruning aggressively. Expensive cells shrink under -race
// (instrumentation is ~10× on this compute) and -short drops the
// largest molecule. The molecules share nothing and every check is
// numeric, which no interleaving of their workers can change beyond
// the summation order the tolerance covers, so they run in parallel.
func TestWallDifferentialMatrix(t *testing.T) {
	type molCase struct {
		name      string
		waters    int
		threshold float64
		uhfCharge int // of recordDeltas' UHF run
	}
	mols := []molCase{
		// The water cation's α and β changes differ; open-shell (H2O)4
		// does not converge in 100 UHF iterations.
		{"water", 1, 1e-10, 1},
		{"waters4", 4, 1e-8, 0},
		{"waters8", 8, 1e-4, 0},
	}
	for _, mc := range mols {
		t.Run(mc.name, func(t *testing.T) {
			if mc.waters >= 8 && (testing.Short() || raceEnabled) {
				t.Skip("large molecule: skipped under -short and -race")
			}
			t.Parallel()
			reduced := raceEnabled && mc.waters >= 4
			mol := chem.WaterCluster(mc.waters, 11)
			bs, err := chem.NewBasis("sto-3g", mol)
			if err != nil {
				t.Fatal(err)
			}
			fw := chem.BuildFockWorkload(bs, mc.threshold, 4)
			h := chem.CoreHamiltonian(bs, mol)
			d := wallDensity(fw, mol, h)

			// Unrestricted densities with genuinely split spins.
			dA := d.Clone()
			dA.Scale(0.55)
			dB := d.Clone()
			dB.Scale(0.45)
			dTot := dA.Clone()
			dTot.AddScaled(1, dB)

			// The cells' inputs: the full builds, then the incremental
			// ones, each with its serial reference; rhf[i] names spin[i].
			type rhfCase struct {
				name string
				h, d *linalg.Matrix
			}
			rhf := []rhfCase{{"full", h, d}}
			spin := []spinDelta{{dTot, dA, dB}}
			if mc.waters <= 4 {
				zero := linalg.NewMatrix(bs.NBF, bs.NBF)
				dr, du := recordDeltas(t, mol, bs, mc.threshold, mc.uhfCharge)
				rhf = append(rhf, rhfCase{"ΔD build 2", zero, dr[0]}, rhfCase{"ΔD last build", zero, dr[1]})
				spin = append(spin, du...)
			}
			refF := make([]*linalg.Matrix, len(rhf))
			for i, c := range rhf {
				refF[i] = fw.BuildFock(c.h, c.d)
			}
			refJK := make([][3]*linalg.Matrix, len(spin))
			for i, c := range spin {
				j, kA, kB := serialSpinJK(fw, c.tot, c.a, c.b)
				refJK[i] = [3]*linalg.Matrix{j, kA, kB}
			}

			execs := wallDiffExecs()
			workers := wallDiffWorkers()
			if reduced {
				execs = []wallDiffExec{execs[0], execs[2], execs[4]} // one per discipline
				workers = []int{3}
			}
			for _, ex := range execs {
				for _, wk := range workers {
					for i, c := range rhf {
						res := wallBuild(t, ex.mode, fw, c.h, c.d, wk, ex.opt)
						if diff := res.F.MaxAbsDiff(refF[i]); diff > fockDiffTol {
							t.Errorf("RHF %s %s workers=%d: Fock differs from serial by %g", c.name, ex.name, wk, diff)
						}
					}

					// UHF on the largest molecule only at one worker count:
					// the spin build costs ~2× and the executor plumbing is
					// identical across counts.
					if mc.waters >= 8 && wk != 3 {
						continue
					}
					for i, c := range spin {
						res := wallBuildUHF(t, ex.mode, fw, c.tot, c.a, c.b, wk, ex.opt)
						for m, got := range [3]*linalg.Matrix{res.J, res.KA, res.KB} {
							if diff := got.MaxAbsDiff(refJK[i][m]); diff > fockDiffTol {
								t.Errorf("UHF %s %s workers=%d: %s differs from serial by %g",
									rhf[i].name, ex.name, wk, [3]string{"J", "Kα", "Kβ"}[m], diff)
							}
						}
					}
				}
			}
		})
	}
}

// The static schedule has a fixed task→worker map and a post-wg.Wait
// merge in worker order, so its result must be bit-identical run to run —
// and at one worker, bit-identical to the serial build (same accumulation
// order throughout).
func TestWallStaticBitwiseDeterministic(t *testing.T) {
	fw := fockWorkload(t, 2)
	mol := chem.WaterCluster(2, 11)
	h := chem.CoreHamiltonian(fw.Basis, mol)
	d := wallDensity(fw, mol, h)
	serial := fw.BuildFock(h, d)
	if res := wallBuild(t, "static", fw, h, d, 1, WallOptions{}); res.F.MaxAbsDiff(serial) != 0 {
		t.Errorf("single-worker static differs from serial by %g, want bitwise equality",
			res.F.MaxAbsDiff(serial))
	}
	a := wallBuild(t, "static", fw, h, d, 3, WallOptions{})
	b := wallBuild(t, "static", fw, h, d, 3, WallOptions{})
	if diff := a.F.MaxAbsDiff(b.F); diff != 0 {
		t.Errorf("static 3-worker builds differ by %g between runs, want bitwise determinism", diff)
	}
}

// The pair-block size changes the task decomposition without changing
// the quartet multiset or the global digestion order, so serial results
// are bitwise invariant and parallel results stay within the matrix
// tolerance.
func TestWallPairBlockEquivalence(t *testing.T) {
	fw := fockWorkload(t, 2)
	mol := chem.WaterCluster(2, 11)
	h := chem.CoreHamiltonian(fw.Basis, mol)
	d := wallDensity(fw, mol, h)
	serial := fw.BuildFock(h, d)
	pairs := chem.SchwarzBounds(fw.Basis)
	for _, pb := range []int{1, 2, 7, 64} {
		fwb := chem.BuildFockWorkloadFromPairs(fw.Basis, pairs, fw.Threshold, pb)
		res := wallBuild(t, "static", fwb, h, d, 1, WallOptions{})
		if diff := res.F.MaxAbsDiff(serial); diff != 0 {
			t.Errorf("pairblock %d: single-worker static differs by %g, want bitwise", pb, diff)
		}
		for _, ex := range wallDiffExecs() {
			pres := wallBuild(t, ex.mode, fwb, h, d, 3, ex.opt)
			if diff := pres.F.MaxAbsDiff(serial); diff > fockDiffTol {
				t.Errorf("pairblock %d %s: Fock differs by %g", pb, ex.name, diff)
			}
		}
	}
}

// SCF through every parallel builder, at several task granularities, must
// converge to the serial energy to 1e-9.
func TestWallSCFEnergyMatrix(t *testing.T) {
	mol := chem.Water()
	bs, err := chem.NewBasis("sto-3g", mol)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := chem.RunSCF(mol, bs, chem.SCFOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, ex := range wallDiffExecs() {
		for _, pb := range []int{0, 1, 7} { // 0 = RunSCF's default block
			builder, err := SchedulerFockBuilder(ex.mode, 3, ex.opt)
			if err != nil {
				t.Fatal(err)
			}
			res, err := chem.RunSCF(mol, bs, chem.SCFOptions{BlockSize: pb}, builder)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Converged {
				t.Errorf("%s pairblock=%d: SCF did not converge", ex.name, pb)
				continue
			}
			if diff := res.Energy - ref.Energy; diff > 1e-9 || diff < -1e-9 {
				t.Errorf("%s pairblock=%d: energy %v differs from serial %v", ex.name, pb, res.Energy, ref.Energy)
			}
		}
	}
}

// Unrestricted SCF through the parallel spin builders must converge to
// the serial UHF energy on an open-shell system.
func TestWallUHFSCFEnergyMatch(t *testing.T) {
	mol := chem.Water()
	mol.Charge = 1 // doublet cation
	bs, err := chem.NewBasis("sto-3g", mol)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := chem.RunUHF(mol, bs, chem.UHFOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !ref.Converged {
		t.Fatal("serial UHF did not converge")
	}
	for _, ex := range wallDiffExecs() {
		builder, err := SchedulerUHFFockBuilder(ex.mode, 3, ex.opt)
		if err != nil {
			t.Fatal(err)
		}
		res, err := chem.RunUHF(mol, bs, chem.UHFOptions{BlockSize: 2, Builder: builder})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged {
			t.Errorf("%s: UHF did not converge", ex.name)
			continue
		}
		if diff := res.Energy - ref.Energy; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("%s: UHF energy %v differs from serial %v", ex.name, res.Energy, ref.Energy)
		}
	}
	if _, err := SchedulerUHFFockBuilder("bogus", 2, WallOptions{}); err == nil {
		t.Error("expected error for unknown mode")
	}
}

// The wall-clock worker loop — scheduler dispatch, accumulator digest,
// busy accounting — must be allocation-free in steady state for both spin
// shapes.
func TestWallWorkerLoopZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; gate runs in the non-race pass")
	}
	fw := fockWorkload(t, 2)
	mol := chem.WaterCluster(2, 11)
	h := chem.CoreHamiltonian(fw.Basis, mol)
	d := wallDensity(fw, mol, h)
	_ = h
	for _, tc := range []struct {
		name string
		spin bool
	}{
		{"restricted", false},
		{"unrestricted", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			slot := &wallAccum{acc: fw.NewJKAccum(tc.spin)}
			var dkB *linalg.Matrix
			if tc.spin {
				dkB = d
			}
			sched := newWallAssignSched(staticBlockAssign(len(fw.Tasks), 1), 1)
			next := sched.next // bind once: method-value creation allocates
			wallWorkerLoop(fw, d, d, dkB, slot, 0, next)
			avg := testing.AllocsPerRun(5, func() {
				sched.cursors[0].n = 0
				wallWorkerLoop(fw, d, d, dkB, slot, 0, next)
			})
			if avg != 0 {
				t.Errorf("worker loop allocates %.1f times per drain, want 0", avg)
			}
		})
	}
}
