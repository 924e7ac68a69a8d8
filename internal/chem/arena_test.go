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
// implementation: same quartets, same digest order, and J/K equal to
// 1e-12. The two kernels sum a block's Hermite terms in different orders
// (the baseline term by term per component, the fast path factored
// through T), so they differ by rounding, a few 1e-15 here; bitwise
// equality was a property of sharing one loop nest, not a requirement.
func TestExecuteTaskScratchMatchesBaseline(t *testing.T) {
	w, d := arenaWorkload(t)
	n := w.Basis.NBF
	s := w.NewScratch()
	for i := range w.Tasks {
		jF, kF := linalg.NewMatrix(n, n), linalg.NewMatrix(n, n)
		jB, kB := linalg.NewMatrix(n, n), linalg.NewMatrix(n, n)
		doneF := w.ExecuteTaskScratch(&w.Tasks[i], d, jF, kF, s)
		doneB := w.ExecuteTaskBaseline(&w.Tasks[i], d, jB, kB)
		if doneF != doneB {
			t.Fatalf("task %d: %d quartets (scratch) vs %d (baseline)", i, doneF, doneB)
		}
		if diff := jF.MaxAbsDiff(jB); diff > 1e-12 {
			t.Errorf("task %d: J differs from baseline by %g", i, diff)
		}
		if diff := kF.MaxAbsDiff(kB); diff > 1e-12 {
			t.Errorf("task %d: K differs from baseline by %g", i, diff)
		}
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
// like ERIBlockPair stay correct: within rounding (1e-12) of the baseline,
// which sums in a different order.
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

// quartetPermutationsInto must agree with the map-based enumeration it
// replaced, in content and first-occurrence order, for every equality
// pattern of shell indices.
func TestQuartetPermutationsIntoMatchesMapBased(t *testing.T) {
	cases := [][4]int{
		{0, 0, 0, 0}, {0, 1, 2, 3}, {0, 0, 1, 1}, {0, 1, 0, 1},
		{0, 1, 1, 0}, {2, 2, 2, 3}, {3, 2, 2, 2}, {5, 5, 7, 7},
		{1, 2, 2, 1}, {4, 4, 4, 9},
	}
	for _, c := range cases {
		want := quartetPermutations(c[0], c[1], c[2], c[3])
		var got [8][4]int
		n := quartetPermutationsInto(c[0], c[1], c[2], c[3], &got)
		if n != len(want) {
			t.Errorf("%v: %d permutations, want %d", c, n, len(want))
			continue
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%v: perm %d = %v, want %v", c, i, got[i], want[i])
			}
		}
	}
}
