package chem

import (
	"testing"

	"execmodels/internal/linalg"
)

// arenaWorkload builds a small but shell-diverse workload (s and p
// shells, multiple water units) for the arena tests.
func arenaWorkload(t testing.TB) (*FockWorkload, *linalg.Matrix) {
	t.Helper()
	mol := WaterCluster(2, 11)
	bs, err := NewBasis("sto-3g", mol)
	if err != nil {
		t.Fatal(err)
	}
	w := BuildFockWorkload(bs, 1e-10, 3)
	if len(w.Tasks) < 4 {
		t.Fatalf("workload too small: %d tasks", len(w.Tasks))
	}
	return w, linalg.Identity(bs.NBF)
}

// The arena-backed fast path must reproduce the retained baseline
// implementation: J/K equal to 1e-12, and the same quartets on an exact
// scratch. The two kernels sum a block's Hermite terms in different orders
// (the baseline term by term per component, the fast path factored
// through T), so they differ by rounding, a few 1e-15 here; bitwise
// equality was a property of sharing one loop nest, not a requirement.
// A Fock build's scratch also skips the quartets the density rule
// weighs below its budget: with the identity density those whose
// blocks are all off-diagonal, three of task 2's 24.
func TestExecuteTaskScratchMatchesBaseline(t *testing.T) {
	w, d := arenaWorkload(t)
	n := w.Basis.NBF
	for _, s := range []*ERIScratch{NewERIScratch(w.Basis), w.NewScratch()} {
		for i := range w.Tasks {
			task := &w.Tasks[i]
			jF, kF := linalg.NewMatrix(n, n), linalg.NewMatrix(n, n)
			jB, kB := linalg.NewMatrix(n, n), linalg.NewMatrix(n, n)
			doneF := w.ExecuteTaskScratch(task, d, jF, kF, s)
			doneB := w.ExecuteTaskBaseline(task, d, jB, kB)
			want, _ := densityRule(w, task, d, []*linalg.Matrix{d}, s.budget)
			if doneB != task.NumQuarts || doneF != want {
				t.Fatalf("budget %g, task %d: %d quartets (scratch), want %d; %d (baseline), want %d",
					s.budget, i, doneF, want, doneB, task.NumQuarts)
			}
			if diff := jF.MaxAbsDiff(jB); diff > 1e-12 {
				t.Errorf("budget %g, task %d: J differs from baseline by %g", s.budget, i, diff)
			}
			if diff := kF.MaxAbsDiff(kB); diff > 1e-12 {
				t.Errorf("budget %g, task %d: K differs from baseline by %g", s.budget, i, diff)
			}
		}
	}
}

// Serial BuildFock — the Kets lists, the density rule and the kernel's
// primitive budget — holds the exact BuildFockBaseline, which screens
// inside its loop, to 5e-12 on the molecules and thresholds of core's
// TestWallDifferentialMatrix at the same core-guess density. That test
// holds every wall cell to serial BuildFock at 5e-12, so together every
// cell stays within 1e-11 of the baseline. Measured: 9.4e-14 at most,
// on (H2O)8. The molecules share nothing and each oracle build is
// single-threaded, so they run in parallel.
func TestBuildFockMatchesBaseline(t *testing.T) {
	for _, mc := range []struct {
		name      string
		basis     string
		waters    int
		threshold float64
	}{
		{"water", "sto-3g", 1, 1e-10},
		{"waters4", "sto-3g", 4, 1e-8},
		{"waters8", "sto-3g", 8, 1e-4},
		// Two merged sp shells per oxygen; 6-31G* puts an unmerged d
		// shell beside them, so each component norm pass walks a
		// merged component list.
		{"waters2/6-31g", "6-31g", 2, 1e-10},
		{"water/6-31g*", "6-31g*", 1, 1e-10},
	} {
		t.Run(mc.name, func(t *testing.T) {
			if mc.waters >= 8 && (testing.Short() || raceEnabled) {
				t.Skip("large molecule: skipped under -short and -race")
			}
			t.Parallel()
			mol := WaterCluster(mc.waters, 11)
			bs := mustBasis(t, mc.basis, mol)
			w := BuildFockWorkload(bs, mc.threshold, 4)
			h := CoreHamiltonian(bs, mol)
			x := linalg.InvSqrtSym(Overlap(bs), 1e-10)
			d, _, _ := densityFromFock(h, x, mol.NumElectrons()/2, 2)
			if diff := w.BuildFock(h, d).MaxAbsDiff(w.BuildFockBaseline(h, d)); diff > 5e-12 {
				t.Errorf("BuildFock differs from the baseline by %g, want <= 5e-12", diff)
			}
		})
	}
}

// A warmed-up scratch arena must make the steady-state ERI loop
// allocation-free: zero heap allocations per task. This is the perf
// trajectory's regression gate for the ERI hot path.
func TestExecuteTaskScratchZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; gate runs in the non-race pass")
	}
	w, d := arenaWorkload(t)
	n := w.Basis.NBF
	s := w.NewScratch()
	j, k := linalg.NewMatrix(n, n), linalg.NewMatrix(n, n)
	// Warm up: first execution may grow lazily-sized buffers.
	for i := range w.Tasks {
		w.ExecuteTaskScratch(&w.Tasks[i], d, j, k, s)
	}
	avg := testing.AllocsPerRun(5, func() {
		for i := range w.Tasks {
			w.ExecuteTaskScratch(&w.Tasks[i], d, j, k, s)
		}
	})
	if avg != 0 {
		t.Errorf("ExecuteTaskScratch allocates %.1f times per sweep, want 0", avg)
	}
}

// The spin (UHF) variant shares the scratch plumbing and must be
// allocation-free too.
func TestExecuteTaskSpinScratchZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; gate runs in the non-race pass")
	}
	w, d := arenaWorkload(t)
	n := w.Basis.NBF
	s := w.NewScratch()
	j, kA, kB := linalg.NewMatrix(n, n), linalg.NewMatrix(n, n), linalg.NewMatrix(n, n)
	for i := range w.Tasks {
		w.ExecuteTaskSpinScratch(&w.Tasks[i], d, d, d, j, kA, kB, s)
	}
	avg := testing.AllocsPerRun(5, func() {
		for i := range w.Tasks {
			w.ExecuteTaskSpinScratch(&w.Tasks[i], d, d, d, j, kA, kB, s)
		}
	})
	if avg != 0 {
		t.Errorf("ExecuteTaskSpinScratch allocates %.1f times per sweep, want 0", avg)
	}
}

// NewERIScratch must size every buffer for the basis's largest class, so
// that the first sweep on a fresh arena — d shells included — allocates
// nothing: a worker's first task is as allocation-free as its last.
func TestExecuteTaskScratchZeroAllocFreshArena(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; gate runs in the non-race pass")
	}
	bs := mustBasis(t, "6-31g*", Water())
	w := BuildFockWorkload(bs, 1e-10, 4)
	d := linalg.Identity(bs.NBF)
	j, k := linalg.NewMatrix(bs.NBF, bs.NBF), linalg.NewMatrix(bs.NBF, bs.NBF)
	const runs = 3
	fresh := make([]*ERIScratch, runs+1) // AllocsPerRun warms up once
	for i := range fresh {
		fresh[i] = w.NewScratch()
	}
	next := 0
	avg := testing.AllocsPerRun(runs, func() {
		s := fresh[next]
		next++
		for i := range w.Tasks {
			w.ExecuteTaskScratch(&w.Tasks[i], d, j, k, s)
		}
	})
	if avg != 0 {
		t.Errorf("first sweep on a fresh NewERIScratch allocates %.1f times, want 0", avg)
	}
}

// A zero-value scratch must work (growing on demand) so ad-hoc callers
// like ERIBlockPairInto(bra, ket, &ERIScratch{}) stay correct: within
// rounding (1e-12) of the baseline, which sums in a different order.
func TestZeroValueScratch(t *testing.T) {
	w, d := arenaWorkload(t)
	n := w.Basis.NBF
	var s ERIScratch
	j, k := linalg.NewMatrix(n, n), linalg.NewMatrix(n, n)
	jRef, kRef := linalg.NewMatrix(n, n), linalg.NewMatrix(n, n)
	w.ExecuteTaskScratch(&w.Tasks[0], d, j, k, &s)
	w.ExecuteTaskBaseline(&w.Tasks[0], d, jRef, kRef)
	if diff := jRef.MaxAbsDiff(j); diff > 1e-12 {
		t.Errorf("zero-value scratch J differs by %g", diff)
	}
}
