package core

import (
	"runtime"
	"testing"

	"execmodels/internal/chem"
	"execmodels/internal/linalg"
)

// The differential equivalence matrix: every wall-clock executor, at
// every worker count and task granularity, must reproduce the retained
// serial baseline's Fock matrix to fockDiffTol. The baseline
// (chem.BuildFockBaseline) still screens inside the worker loop, so the
// comparison also pins generation-time screening (FockTask.Kets) against
// the original in-loop bound test on real molecules.
const fockDiffTol = 1e-11

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

// TestWallDifferentialMatrix sweeps {molecule} × {RHF, UHF} × {executor ×
// granularity} × {workers} and holds every cell to the serial baseline at
// fockDiffTol. Screening thresholds are chosen per molecule so the large
// systems stay affordable while still pruning aggressively — the pruning
// itself is what the baseline comparison validates. Expensive cells
// shrink under -race (instrumentation is ~10× on this compute) and
// -short drops the largest molecule.
func TestWallDifferentialMatrix(t *testing.T) {
	type molCase struct {
		name      string
		waters    int
		threshold float64
	}
	mols := []molCase{
		{"water", 1, 1e-10},
		{"waters4", 4, 1e-8},
		{"waters8", 8, 1e-4},
	}
	for _, mc := range mols {
		t.Run(mc.name, func(t *testing.T) {
			if mc.waters >= 8 && (testing.Short() || raceEnabled) {
				t.Skip("large molecule: skipped under -short and -race")
			}
			reduced := raceEnabled && mc.waters >= 4
			mol := chem.WaterCluster(mc.waters, 11)
			bs, err := chem.NewBasis("sto-3g", mol)
			if err != nil {
				t.Fatal(err)
			}
			fw := chem.BuildFockWorkload(bs, mc.threshold, 4)
			h := chem.CoreHamiltonian(bs, mol)
			d := wallDensity(fw, mol, h)
			refF := fw.BuildFockBaseline(h, d)

			// Unrestricted densities with genuinely split spins.
			dA := d.Clone()
			dA.Scale(0.55)
			dB := d.Clone()
			dB.Scale(0.45)
			dTot := dA.Clone()
			dTot.AddScaled(1, dB)
			refJ, refKA, refKB := serialSpinJK(fw, dTot, dA, dB)

			execs := wallDiffExecs()
			workers := wallDiffWorkers()
			if reduced {
				execs = []wallDiffExec{execs[0], execs[2], execs[4]} // one per discipline
				workers = []int{3}
			}
			for _, ex := range execs {
				for _, wk := range workers {
					res := wallBuild(t, ex.mode, fw, h, d, wk, ex.opt)
					if diff := res.F.MaxAbsDiff(refF); diff > fockDiffTol {
						t.Errorf("RHF %s workers=%d: Fock differs from baseline by %g", ex.name, wk, diff)
					}

					// UHF on the largest molecule only at one worker count:
					// the spin build costs ~2× and the executor plumbing is
					// identical across counts.
					if mc.waters >= 8 && wk != 3 {
						continue
					}
					spin := wallBuildUHF(t, ex.mode, fw, dTot, dA, dB, wk, ex.opt)
					if diff := spin.J.MaxAbsDiff(refJ); diff > fockDiffTol {
						t.Errorf("UHF %s workers=%d: J differs by %g", ex.name, wk, diff)
					}
					if diff := spin.KA.MaxAbsDiff(refKA); diff > fockDiffTol {
						t.Errorf("UHF %s workers=%d: Kα differs by %g", ex.name, wk, diff)
					}
					if diff := spin.KB.MaxAbsDiff(refKB); diff > fockDiffTol {
						t.Errorf("UHF %s workers=%d: Kβ differs by %g", ex.name, wk, diff)
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

// FockWorkload.Reblock changes the task decomposition without changing
// the quartet multiset or the global digestion order, so serial results
// are bitwise invariant and parallel results stay within the matrix
// tolerance.
func TestWallPairBlockEquivalence(t *testing.T) {
	fw := fockWorkload(t, 2)
	mol := chem.WaterCluster(2, 11)
	h := chem.CoreHamiltonian(fw.Basis, mol)
	d := wallDensity(fw, mol, h)
	serial := fw.BuildFock(h, d)
	for _, pb := range []int{1, 2, 7, 64} {
		fwb := fw.Reblock(pb)
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
// shapes. This is the testing.AllocsPerRun gate behind the
// //hotpath:allocfree proof on wallWorkerLoop.
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
