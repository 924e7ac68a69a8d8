package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"execmodels/internal/chem"
	"execmodels/internal/deque"
	"execmodels/internal/linalg"
)

// WallResult is the outcome of a real (wall-clock) parallel Fock build:
// the merged matrices plus the scheduler telemetry of the run. J, KA and
// KB are the Coulomb and exchange accumulations (KB only for an
// unrestricted build, where the caller — chem.RunUHF — assembles the two
// spin Fock matrices); F = H + J − KA/2 is set by the restricted Build.
type WallResult struct {
	F          *linalg.Matrix
	J, KA, KB  *linalg.Matrix
	Elapsed    time.Duration
	WorkerBusy []time.Duration // per-worker time spent executing tasks
	Steals     int64           // successful steal-half operations
	StealRetry int64           // failed steal rounds (victim empty) — the tail-spin metric
	StealSeed  int64           // the victim-selection seed actually used
	CounterOps int64           // NXTVAL fetches (dynamic mode)
}

// LoadImbalance returns max/mean worker busy time.
func (r *WallResult) LoadImbalance() float64 {
	var sum, mx time.Duration
	for _, b := range r.WorkerBusy {
		sum += b
		if b > mx {
			mx = b
		}
	}
	if sum == 0 {
		return 0
	}
	return float64(mx) / (float64(sum) / float64(len(r.WorkerBusy)))
}

// wallCounters is the scheduler telemetry every wall-clock schedule
// reports after a run; schedules that lack a counter leave it zero.
type wallCounters struct {
	steals, retries, seed, counterOps int64
}

// wallSched is one wall-clock scheduling discipline: next hands worker wk
// its next task index (invoked only from worker wk's goroutine, so
// per-worker state needs no synchronization), counters reports the
// telemetry accumulated over the run. A worker may die mid-task (see
// wallRunJK), so next must never wait for a task that only one particular
// worker could run.
type wallSched interface {
	next(wk int) (int, bool)
	counters() wallCounters
}

// WorkerPanic is the value a wall-clock build panics with, on the
// goroutine that called Build, when one of its worker goroutines
// panicked: the worker's own panic value and the stack it was raised on,
// which the caller's stack no longer shows.
type WorkerPanic struct {
	Value any
	Stack []byte
}

func (p *WorkerPanic) Error() string {
	return fmt.Sprintf("%v\n\nwall worker stack:\n%s", p.Value, p.Stack)
}

// wallAccum is one worker's slot in the shared accumulator table: the
// worker-private J/K accumulator (with its scratch arena) plus the busy
// stopwatch the worker bumps after every task. Workers write only their
// own slot, but slots are adjacent in one slice, so each is padded to a
// cache line — otherwise every busy update would false-share with the
// neighbouring workers' slots. The shareiso check proves the ownership
// half of that sentence: each slot is touched only through its owning
// worker's index, and the spawner reads the slots back only after
// wg.Wait.
//
//hotpath:padded
//hotpath:isolated
type wallAccum struct {
	acc  *chem.JKAccum
	busy time.Duration
	// taskSec, when non-nil, captures each executed task's wall time by
	// task index — the measurement side of the obs→scheduler feedback
	// loop. Indexed by the task id the schedule hands out, so disjoint
	// schedules write disjoint entries; sized before the clock starts.
	taskSec []float64
	// panicked is set by a worker whose task panicked, just before it
	// returns; wallRunJK re-raises it on the calling goroutine.
	panicked *WorkerPanic
	_        [16]byte
}

// wallRunJK is the one function that runs a parallel Fock build: it
// spawns workers, each pulling task indices from sched until exhausted and
// digesting into its own wallAccum slot (through a worker-private scratch
// arena, so the steady-state loop allocates nothing). The per-worker
// accumulators are folded into the returned J/K matrices only after
// wg.Wait, in worker order — no concurrent writes to shared matrices
// anywhere, and the merge order is deterministic for a fixed worker
// count. dj feeds the Coulomb contraction; dkA (and dkB when spin) feed
// exchange.
//
// taskSeconds, when non-nil (len = number of tasks), receives each task's
// measured wall time: every worker records into its own pre-sized slice
// and the slices are folded after wg.Wait, so the measurement path stays
// race-free and allocation-free inside the timed loop.
//
// A panic on a worker goroutine would kill the process with no caller
// able to recover it, so each worker contains its own: it records the
// panic in its slot and returns, the others drain the schedule, and after
// wg.Wait the first recorded panic (in worker order) is raised again on
// the calling goroutine, where a caller's recover (serve.runJob) can
// reach it.
func wallRunJK(fw *chem.FockWorkload, dj, dkA, dkB *linalg.Matrix, spin bool,
	workers int, sched wallSched, taskSeconds []float64) *WallResult {
	// Cold start: worker accumulators and scratch arenas are allocated
	// before the clock starts, outside the proved-allocation-free loop.
	slots := make([]wallAccum, workers)
	for wk := range slots {
		slots[wk].acc = fw.NewJKAccum(spin)
		if taskSeconds != nil {
			slots[wk].taskSec = make([]float64, len(taskSeconds))
		}
	}

	sw := startStopwatch()
	var wg sync.WaitGroup
	for wk := 0; wk < workers; wk++ {
		wg.Add(1)
		go func(wk int) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					slots[wk].panicked = &WorkerPanic{Value: p, Stack: debug.Stack()}
				}
			}()
			wallWorkerLoop(fw, dj, dkA, dkB, &slots[wk], wk, sched.next)
		}(wk)
	}
	wg.Wait()
	elapsed := sw.elapsed()

	n := fw.Basis.NBF
	res := &WallResult{J: linalg.NewMatrix(n, n), KA: linalg.NewMatrix(n, n),
		Elapsed: elapsed, WorkerBusy: make([]time.Duration, workers)}
	if spin {
		res.KB = linalg.NewMatrix(n, n)
	}
	for wk := range slots {
		if p := slots[wk].panicked; p != nil {
			panic(p)
		}
		slots[wk].acc.MergeInto(res.J, res.KA, res.KB)
		res.WorkerBusy[wk] = slots[wk].busy
		if taskSeconds != nil {
			// Each task ran on exactly one worker; fold the sparse
			// per-worker records (zero = not executed here).
			for i, v := range slots[wk].taskSec {
				if v != 0 {
					taskSeconds[i] = v
				}
			}
		}
	}
	c := sched.counters()
	res.Steals, res.StealRetry, res.StealSeed, res.CounterOps = c.steals, c.retries, c.seed, c.counterOps
	return res
}

// wallWorkerLoop is the steady-state body of every wall-clock worker:
// pull a task index, digest it into the worker's own accumulator slot,
// account the busy time. This is the loop the paper's execution-model
// comparison times, so it must not allocate — the arena-backed
// accumulator makes the digestion allocation-free after warm-up, and the
// allocfree check proves it for every schedule implementation. Screening
// never appears here: the task's quartet multiset was resolved into Kets
// lists at generation time.
//
//hotpath:allocfree
func wallWorkerLoop(fw *chem.FockWorkload, dj, dkA, dkB *linalg.Matrix,
	slot *wallAccum, wk int, nextTask func(worker int) (int, bool)) {
	for {
		//lint:ignore allocfree indirect dispatch: every nextTask implementation (wallAssignSched, wallDynSched, wallStealSched .next) is itself an annotated allocfree root
		id, ok := nextTask(wk)
		if !ok {
			return
		}
		t0 := startStopwatch()
		fw.ExecuteTaskAccum(&fw.Tasks[id], dj, dkA, dkB, slot.acc)
		dt := t0.elapsed()
		slot.busy += dt
		if slot.taskSec != nil {
			slot.taskSec[id] = dt.Seconds()
		}
	}
}

// padCell is a per-worker counter padded to a 64-byte cache line:
// adjacent workers' hot scheduling words must not share a line, or every
// cursor bump invalidates the neighbours' caches (false sharing). Each
// cell is read and written only by its owning worker goroutine, so no
// atomics are needed — an invariant the shareiso check enforces.
//
//hotpath:padded
//hotpath:isolated
type padCell struct {
	n int64
	_ [56]byte
}

// dynSpan is the per-worker [next, hi) range of a block fetched from the
// shared counter plus the worker's count of its own fetches, padded like
// padCell and goroutine-owned like padCell (shareiso-checked).
//
//hotpath:padded
//hotpath:isolated
type dynSpan struct {
	next, hi, fetches int64
	_                 [40]byte
}

// atomicInt64Pad is an atomic counter padded to its own cache line, for
// the genuinely shared counters: remaining tasks and steal stats, which
// sit next to each other in wallStealSched, and the NXTVAL counter of
// wallDynSched.
//
//hotpath:padded
type atomicInt64Pad struct {
	atomic.Int64
	_ [56]byte
}

// wallDynSched serves blocks of consecutive tasks from a shared atomic
// counter (the Global Arrays NXTVAL idiom) into per-worker padded spans.
type wallDynSched struct {
	counter  atomicInt64Pad
	n, block int64
	spans    []dynSpan
}

func newWallDynSched(n, workers, block int) *wallDynSched {
	if block < 1 {
		block = 1
	}
	return &wallDynSched{n: int64(n), block: int64(block), spans: make([]dynSpan, workers)}
}

// next implements the dynamic-counter schedule for worker wk.
//
//hotpath:allocfree
func (s *wallDynSched) next(wk int) (int, bool) {
	sp := &s.spans[wk]
	if sp.next < sp.hi {
		v := sp.next
		sp.next++
		return int(v), true
	}
	sp.fetches++
	lo := s.counter.Add(s.block) - s.block
	if lo >= s.n {
		return 0, false
	}
	hi := lo + s.block
	if hi > s.n {
		hi = s.n
	}
	sp.next, sp.hi = lo+1, hi
	return int(lo), true
}

// counters sums the workers' fetch counts. wallRunJK calls it after
// wg.Wait, when no worker writes its span any more.
func (s *wallDynSched) counters() wallCounters {
	var ops int64
	for i := range s.spans {
		ops += s.spans[i].fetches
	}
	return wallCounters{counterOps: ops}
}

// Backoff schedule for idle thieves: a few yielded retries, then sleeps
// growing linearly to a cap. Without this, workers that finish early
// hammer StealHalf at 100% CPU until the last task completes, polluting
// WorkerBusy/Elapsed and starving the workers still computing.
const (
	stealSpinRounds  = 4
	stealBackoffStep = 2 * time.Microsecond
	stealBackoffMax  = 200 * time.Microsecond
)

// wallStealSched is the per-worker-deque steal-half schedule: pop
// locally, steal half a victim's deque when empty, back off when steals
// fail. The shared counters are padded so the hot Add/Load traffic does
// not false-share.
type wallStealSched struct {
	deques                     []*deque.Deque
	workers                    int
	seed                       int64
	remaining, steals, retries atomicInt64Pad
	rngs                       []*rand.Rand
}

func newWallStealSched(n, workers int, seed int64) *wallStealSched {
	s := &wallStealSched{deques: make([]*deque.Deque, workers), workers: workers, seed: seed}
	for wk := range s.deques {
		s.deques[wk] = new(deque.Deque)
	}
	per := (n + workers - 1) / workers
	for i := 0; i < n; i++ {
		r := i / per
		if r >= workers {
			r = workers - 1
		}
		s.deques[r].Push(i)
	}
	s.remaining.Store(int64(n))
	s.rngs = make([]*rand.Rand, workers)
	for wk := range s.rngs {
		s.rngs[wk] = rand.New(rand.NewSource(seed + int64(wk)))
	}
	return s
}

// next implements the work-stealing schedule for worker wk.
//
//hotpath:allocfree
func (s *wallStealSched) next(wk int) (int, bool) {
	failed := 0
	for {
		if id, ok := s.deques[wk].Pop(); ok {
			s.remaining.Add(-1)
			return id, true
		}
		if s.remaining.Load() <= 0 {
			return 0, false
		}
		if s.workers > 1 {
			// Pick a victim other than ourselves: self-steals are
			// guaranteed misses (our deque just came up empty).
			victim := s.rngs[wk].Intn(s.workers - 1)
			if victim >= wk {
				victim++
			}
			if loot := s.deques[victim].StealHalf(); loot != nil {
				s.steals.Add(1)
				s.deques[wk].PushBatch(loot)
				failed = 0
				continue
			}
		}
		// Failed round: yield first, then back off with bounded
		// sleeps so the idle tail does not busy-spin.
		s.retries.Add(1)
		failed++
		if failed <= stealSpinRounds {
			runtime.Gosched()
			continue
		}
		pause := time.Duration(failed-stealSpinRounds) * stealBackoffStep
		if pause > stealBackoffMax {
			pause = stealBackoffMax
		}
		time.Sleep(pause)
	}
}

func (s *wallStealSched) counters() wallCounters {
	return wallCounters{steals: s.steals.Load(), retries: s.retries.Load(), seed: s.seed}
}

// WallOptions carries the tunables NewWallScheduler threads through to
// every Fock build of an SCF run. Task granularity is not among them: it
// belongs to the workload (SCFOptions.BlockSize, FockWorkload.Reblock).
type WallOptions struct {
	Seed  int64 // work-stealing victim-selection seed
	Block int   // dynamic-counter tasks per NXTVAL fetch (<1 means 1)
}
