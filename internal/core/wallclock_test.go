package core

import (
	"runtime"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"execmodels/internal/chem"
	"execmodels/internal/linalg"
)

// wallDensity builds a core-guess density so the equivalence tests
// exercise realistically structured J/K contractions.
func wallDensity(fw *chem.FockWorkload, mol *chem.Molecule, h *linalg.Matrix) *linalg.Matrix {
	bs := fw.Basis
	s := chem.Overlap(bs)
	x := linalg.InvSqrtSym(s, 1e-10)
	fp := linalg.TripleProduct(x, h)
	_, cp := linalg.EigenSym(fp)
	c := linalg.MatMul(x, cp)
	n := bs.NBF
	d := linalg.NewMatrix(n, n)
	nocc := mol.NumElectrons() / 2
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			var v float64
			for k := 0; k < nocc; k++ {
				v += c.At(i, k) * c.At(j, k)
			}
			d.Set(i, j, 2*v)
		}
	}
	return d
}

// mustWallScheduler is NewWallScheduler — the wall backend's only entry
// point — for a policy the test knows to be valid.
func mustWallScheduler(t testing.TB, mode string, workers int, opt WallOptions) *WallScheduler {
	t.Helper()
	ws, err := NewWallScheduler(mode, workers, opt)
	if err != nil {
		t.Fatal(err)
	}
	return ws
}

// wallBuild runs one restricted Fock build under the named policy.
func wallBuild(t testing.TB, mode string, fw *chem.FockWorkload, h, d *linalg.Matrix, workers int, opt WallOptions) *WallResult {
	t.Helper()
	res, err := mustWallScheduler(t, mode, workers, opt).Build(fw, h, d)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// wallBuildUHF is wallBuild's unrestricted counterpart.
func wallBuildUHF(t testing.TB, mode string, fw *chem.FockWorkload, dTot, dA, dB *linalg.Matrix, workers int, opt WallOptions) *WallResult {
	t.Helper()
	res, err := mustWallScheduler(t, mode, workers, opt).BuildUHF(fw, dTot, dA, dB)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// All wall-clock executors must reproduce the serial Fock matrix exactly
// (up to floating-point accumulation order).
func TestWallExecutorsMatchSerial(t *testing.T) {
	fw := fockWorkload(t, 2)
	mol := chem.WaterCluster(2, 11)
	h := chem.CoreHamiltonian(fw.Basis, mol)
	d := wallDensity(fw, mol, h)

	want := fw.BuildFock(h, d)
	for _, tc := range []struct {
		name string
		opt  WallOptions
	}{
		{"static", WallOptions{}},
		{"dynamic", WallOptions{Block: 1}},
		{"stealing", WallOptions{Seed: 7}},
	} {
		res := wallBuild(t, tc.name, fw, h, d, 4, tc.opt)
		if diff := res.F.MaxAbsDiff(want); diff > 1e-9 {
			t.Errorf("%s: Fock differs from serial by %v", tc.name, diff)
		}
		if res.Elapsed <= 0 {
			t.Errorf("%s: no elapsed time", tc.name)
		}
		if len(res.WorkerBusy) != 4 {
			t.Errorf("%s: %d workers recorded", tc.name, len(res.WorkerBusy))
		}
	}
}

// Cross-mode equivalence under awkward task/worker shapes: non-divisible
// counts, more workers than tasks, and dynamic block sizes that do not
// divide the task count. Every combination must reproduce the serial
// Fock matrix. CI runs this package under -race, which doubles as the
// concurrency check on the padded per-worker state.
func TestWallModesEquivalenceMatrix(t *testing.T) {
	fw := fockWorkload(t, 2)
	mol := chem.WaterCluster(2, 11)
	h := chem.CoreHamiltonian(fw.Basis, mol)
	d := wallDensity(fw, mol, h)
	want := fw.BuildFock(h, d)
	nt := len(fw.Tasks)

	workerCounts := []int{1, 3, 5}
	if nt+1 > 5 {
		workerCounts = append(workerCounts, nt+1) // more workers than tasks
	}
	for _, workers := range workerCounts {
		for _, ex := range wallDiffExecs() {
			res := wallBuild(t, ex.mode, fw, h, d, workers, ex.opt)
			if diff := res.F.MaxAbsDiff(want); diff > 1e-9 {
				t.Errorf("%s workers=%d: Fock differs from serial by %v", ex.name, workers, diff)
			}
		}
	}
}

func TestWallDynamicCounterOps(t *testing.T) {
	fw := fockWorkload(t, 1)
	bs := fw.Basis
	n := bs.NBF
	h := linalg.NewMatrix(n, n)
	d := linalg.Identity(n)
	res := wallBuild(t, "dynamic", fw, h, d, 3, WallOptions{Block: 1})
	// One fetch per task plus one final miss per worker.
	want := int64(len(fw.Tasks) + 3)
	if res.CounterOps != want {
		t.Errorf("counter ops = %d, want %d", res.CounterOps, want)
	}
}

// Regression (satellite: dynamic block size): with a fetch block of B the
// counter must be hit exactly ceil(n/B) times plus one final miss per
// worker — the whole point of blocked NXTVAL is fewer counter ops.
func TestWallDynamicBlockedCounterOps(t *testing.T) {
	fw := fockWorkload(t, 1)
	n := fw.Basis.NBF
	h := linalg.NewMatrix(n, n)
	d := linalg.Identity(n)
	serial := fw.BuildFock(h, d)
	nt := len(fw.Tasks)
	for _, tc := range []struct{ workers, block int }{
		{1, 2}, {3, 2}, {3, 4}, {2, 1000}, // incl. block > #tasks
	} {
		res := wallBuild(t, "dynamic", fw, h, d, tc.workers, WallOptions{Block: tc.block})
		want := int64((nt+tc.block-1)/tc.block + tc.workers)
		if res.CounterOps != want {
			t.Errorf("workers=%d block=%d: counter ops = %d, want %d",
				tc.workers, tc.block, res.CounterOps, want)
		}
		if diff := res.F.MaxAbsDiff(serial); diff > 1e-9 {
			t.Errorf("workers=%d block=%d: Fock differs by %v", tc.workers, tc.block, diff)
		}
	}
	// A non-positive block must degrade to the classic NXTVAL, not panic.
	if res := wallBuild(t, "dynamic", fw, h, d, 2, WallOptions{}); res.CounterOps != int64(nt+2) {
		t.Errorf("block=0: counter ops = %d, want %d", res.CounterOps, nt+2)
	}
}

// The dynamic schedule's NXTVAL contract, driven without a Fock build:
// concurrent workers calling next until it refuses are handed every index
// in [0, n) exactly once, and the counter is hit ceil(n/B) times plus one
// final miss per worker. CI runs it under -race.
func TestWallDynSchedHandsOutEachIndexOnce(t *testing.T) {
	for _, n := range []int{1, 49, 97} {
		for _, workers := range []int{1, 3, 8} {
			for _, block := range []int{0, 1, 3, 7} {
				s := newWallDynSched(n, workers, block)
				got := make([][]int, workers)
				var wg sync.WaitGroup
				for wk := 0; wk < workers; wk++ {
					wg.Add(1)
					go func(wk int) {
						defer wg.Done()
						for id, ok := s.next(wk); ok; id, ok = s.next(wk) {
							got[wk] = append(got[wk], id)
						}
					}(wk)
				}
				wg.Wait()
				seen := make([]int, n)
				for _, ids := range got {
					for _, id := range ids {
						if id < 0 || id >= n {
							t.Fatalf("n=%d workers=%d block=%d: index %d out of range", n, workers, block, id)
						}
						seen[id]++
					}
				}
				for id, c := range seen {
					if c != 1 {
						t.Errorf("n=%d workers=%d block=%d: index %d handed out %d times", n, workers, block, id, c)
					}
				}
				b := max(block, 1)
				if ops, want := s.counters().counterOps, int64((n+b-1)/b+workers); ops != want {
					t.Errorf("n=%d workers=%d block=%d: counter ops = %d, want %d", n, workers, block, ops, want)
				}
			}
		}
	}
}

func TestWallSingleWorker(t *testing.T) {
	fw := fockWorkload(t, 1)
	n := fw.Basis.NBF
	h := linalg.NewMatrix(n, n)
	d := linalg.Identity(n)
	serial := fw.BuildFock(h, d)
	res := wallBuild(t, "stealing", fw, h, d, 1, WallOptions{Seed: 1})
	if diff := res.F.MaxAbsDiff(serial); diff > 1e-10 {
		t.Errorf("single-worker stealing differs by %v", diff)
	}
	if res.Steals != 0 {
		t.Errorf("%d steals with one worker", res.Steals)
	}
}

// Regression (satellite: seed plumbing): the seed in WallOptions — the
// one every SchedulerFockBuilder threads through — must be the seed the
// stealing schedule actually ran with; a builder once hard-coded seed 1.
func TestWallStealingSeedPlumbed(t *testing.T) {
	fw := fockWorkload(t, 1)
	n := fw.Basis.NBF
	h := linalg.NewMatrix(n, n)
	d := linalg.Identity(n)
	for _, seed := range []int64{42, 99} {
		if res := wallBuild(t, "stealing", fw, h, d, 2, WallOptions{Seed: seed}); res.StealSeed != seed {
			t.Errorf("stealing ran with seed %d, want %d (hard-coded seed regression)", res.StealSeed, seed)
		}
	}
}

// Regression (satellite: tail spin): idle thieves must back off instead
// of hammering StealHalf at 100% CPU. The workload is a single task on
// many workers — the worst case, where every other worker is idle for
// the whole build. Without backoff the failed-round count explodes into
// the millions; with yields + bounded sleeps it stays small.
func TestWallStealingTailBackoff(t *testing.T) {
	mol := chem.WaterCluster(2, 11)
	bs, err := chem.NewBasis("sto-3g", mol)
	if err != nil {
		t.Fatal(err)
	}
	// One giant task: every bra pair in a single block.
	fw := chem.BuildFockWorkload(bs, 1e-10, 1<<20)
	if len(fw.Tasks) != 1 {
		t.Fatalf("expected 1 task, got %d", len(fw.Tasks))
	}
	h := chem.CoreHamiltonian(bs, mol)
	d := linalg.Identity(bs.NBF)
	res := wallBuild(t, "stealing", fw, h, d, 8, WallOptions{Seed: 3})
	serial := fw.BuildFock(h, d)
	if diff := res.F.MaxAbsDiff(serial); diff > 1e-9 {
		t.Errorf("Fock differs by %v", diff)
	}
	// 7 idle workers for the full build. The backoff caps failed rounds
	// at roughly (build time / max pause) per worker; allow a generous
	// margin. The pre-fix spin loop exceeds this by orders of magnitude.
	const maxRetries = 100_000
	if res.StealRetry > maxRetries {
		t.Errorf("idle workers burned %d failed steal rounds, want <= %d (tail spin regression)",
			res.StealRetry, maxRetries)
	}
}

// The per-worker and shared scheduling words sit side by side in slices
// and structs, so each type must fill whole 64-byte cache lines, or one
// worker's updates false-share with its neighbours'.
func TestWallPerWorkerStatePadded(t *testing.T) {
	var (
		cell  padCell
		span  dynSpan
		ctr   atomicInt64Pad
		accum wallAccum
	)
	for _, c := range []struct {
		name string
		size uintptr
	}{{"padCell", unsafe.Sizeof(cell)}, {"dynSpan", unsafe.Sizeof(span)},
		{"atomicInt64Pad", unsafe.Sizeof(ctr)}, {"wallAccum", unsafe.Sizeof(accum)}} {
		if c.size%64 != 0 {
			t.Errorf("%s is %d bytes, want a multiple of 64", c.name, c.size)
		}
	}
	if off := unsafe.Offsetof(ctr.Int64); off != 0 {
		t.Errorf("atomicInt64Pad.Int64 sits at offset %d, want 0", off)
	}
}

// workers < 1 is refused where a build is set up — NewWallScheduler's
// error — so no build can reach the worker spawn loop without a worker.
func TestWallBadWorkersPanics(t *testing.T) {
	for _, mode := range []string{"static", "dynamic", "stealing"} {
		for _, workers := range []int{0, -1} {
			if _, err := NewWallScheduler(mode, workers, WallOptions{}); err == nil {
				t.Errorf("%s: workers = %d accepted", mode, workers)
			}
		}
	}
}

// SCF through each parallel builder must converge to the serial energy.
func TestParallelSCFEnergyMatch(t *testing.T) {
	mol := chem.Water()
	bs, err := chem.NewBasis("sto-3g", mol)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := chem.RunSCF(mol, bs, chem.SCFOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []string{"static", "dynamic", "stealing"} {
		builder, err := SchedulerFockBuilder(mode, 4, WallOptions{Seed: 3, Block: 2})
		if err != nil {
			t.Fatal(err)
		}
		res, err := chem.RunSCF(mol, bs, chem.SCFOptions{}, builder)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged {
			t.Errorf("%s: SCF did not converge", mode)
		}
		if diff := res.Energy - ref.Energy; diff > 1e-8 || diff < -1e-8 {
			t.Errorf("%s: energy %v differs from serial %v", mode, res.Energy, ref.Energy)
		}
	}
	if _, err := SchedulerFockBuilder("bogus", 2, WallOptions{}); err == nil {
		t.Error("expected error for unknown mode")
	}
}

// poisonedWorkload returns a copy of fw whose task k lists a ket pair
// index one past the end of Pairs, so executing it panics inside the
// kernel. Tasks and the edited Kets row are copied first: the rows of a
// workload share one backing array.
func poisonedWorkload(fw *chem.FockWorkload, k int) *chem.FockWorkload {
	bad := *fw
	bad.Tasks = append([]chem.FockTask(nil), fw.Tasks...)
	task := &bad.Tasks[k]
	task.Kets = append([][]int32(nil), task.Kets...)
	task.Kets[0] = append(append([]int32(nil), task.Kets[0]...), int32(len(fw.Pairs)))
	return &bad
}

// A task that panics on a worker goroutine must not take the process
// down: the panic surfaces on the goroutine that called Build, with the
// worker's value and stack, after the surviving workers have drained the
// schedule. The poisoned task is the first one worker 0 pops under
// stealing, so that worker dies with a full deque the others must steal.
func TestWallWorkerPanicReachesCaller(t *testing.T) {
	fw := fockWorkload(t, 2)
	mol := chem.WaterCluster(2, 11)
	h := chem.CoreHamiltonian(fw.Basis, mol)
	d := wallDensity(fw, mol, h)
	const workers = 3
	bad := poisonedWorkload(fw, (len(fw.Tasks)+workers-1)/workers-1)
	for _, mode := range []string{"static", "dynamic", "stealing"} {
		t.Run(mode, func(t *testing.T) {
			ws := mustWallScheduler(t, mode, workers, WallOptions{Seed: 13})
			defer func() {
				p, ok := recover().(*WorkerPanic)
				if !ok {
					t.Fatalf("Build did not panic with a *WorkerPanic")
				}
				if re, ok := p.Value.(runtime.Error); !ok || !strings.Contains(re.Error(), "index out of range") {
					t.Errorf("panic value = %v, want the kernel's index error", p.Value)
				}
				if !strings.Contains(string(p.Stack), "executeTask") {
					t.Errorf("stack does not show the worker's frames:\n%s", p.Stack)
				}
			}()
			ws.Build(bad, h, d)
			t.Fatal("Build returned from a poisoned workload")
		})
	}
}
