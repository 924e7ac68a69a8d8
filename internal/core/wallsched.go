package core

import (
	"fmt"
	"strings"

	"execmodels/internal/chem"
	"execmodels/internal/linalg"
)

// This file is the wall-clock backend's only entry point: a Scheduler
// (scheduler.go) plans a Fock task set, newWallSchedFromPlan lowers the
// plan onto a goroutine schedule, wallRunJK (wallclock.go) runs it, and
// measured per-task wall times feed back into FeedbackScheduler
// implementations for the next SCF iteration.

// FockTaskSet converts a screened Fock workload into the scheduler-seam
// description: stable content keys (chem.FockTask.Key), NBF⁴-style flop
// estimates as costs, and the shell row-blocks of the density/Fock
// matrices as the data-block geometry (mirroring FromFock).
func FockTaskSet(fw *chem.FockWorkload) *TaskSet {
	bs := fw.Basis
	ts := &TaskSet{
		Name:       fmt.Sprintf("fock-%s-n%d", bs.Name, bs.NBF),
		Keys:       make([]uint64, len(fw.Tasks)),
		Costs:      make([]float64, len(fw.Tasks)),
		Blocks:     make([][]int, len(fw.Tasks)),
		NumBlocks:  len(bs.Shells),
		BlockBytes: make([]int, len(bs.Shells)),
	}
	for i := range bs.Shells {
		ts.BlockBytes[i] = bs.Shells[i].NumFuncs() * bs.NBF * 8
	}
	for i := range fw.Tasks {
		t := &fw.Tasks[i]
		ts.Keys[i] = t.Key()
		ts.Costs[i] = t.EstFlops
		seen := map[int]bool{}
		for _, p := range t.BraPairs {
			if !seen[p.I] {
				seen[p.I] = true
				ts.Blocks[i] = append(ts.Blocks[i], p.I)
			}
			if !seen[p.J] {
				seen[p.J] = true
				ts.Blocks[i] = append(ts.Blocks[i], p.J)
			}
		}
		sortInts(ts.Blocks[i])
	}
	return ts
}

// wallAssignSched executes a fixed task→rank assignment on the wall-clock
// backend: each worker walks its own pre-dealt task list in ascending
// task index (so a one-worker static-block build digests in the serial
// sweep's order, bit for bit) with a padded per-worker cursor. This is
// the lowering that lets every assignment-based simulator policy run
// unchanged on real goroutines.
type wallAssignSched struct {
	lists   [][]int32
	cursors []padCell
}

func newWallAssignSched(assign []int, workers int) *wallAssignSched {
	lists := make([][]int32, workers)
	counts := make([]int, workers)
	for _, r := range assign {
		counts[r]++
	}
	for wk := range lists {
		lists[wk] = make([]int32, 0, counts[wk])
	}
	for i, r := range assign {
		lists[r] = append(lists[r], int32(i))
	}
	return &wallAssignSched{lists: lists, cursors: make([]padCell, workers)}
}

// next implements the fixed-assignment schedule for worker wk.
//
//hotpath:allocfree
func (s *wallAssignSched) next(wk int) (int, bool) {
	c := int(s.cursors[wk].n)
	if c >= len(s.lists[wk]) {
		return 0, false
	}
	s.cursors[wk].n++
	return int(s.lists[wk][c]), true
}

func (s *wallAssignSched) counters() wallCounters { return wallCounters{} }

// newWallSchedFromPlan lowers one scheduler plan onto the wall-clock
// backend — the only place a policy meets a wallSched. Assignment plans
// run through wallAssignSched; pull plans map onto the counter and
// stealing schedules. Self-scheduling chunk policies and the stealing
// variants (steal-one, max-loaded victim) model cluster
// behaviors with no goroutine counterpart and are rejected as
// simulator-only.
func newWallSchedFromPlan(plan *Plan, n, workers int) (wallSched, error) {
	switch {
	case plan.Assign != nil:
		return newWallAssignSched(plan.Assign, workers), nil
	case plan.Pull != nil && plan.Pull.Kind == PullCounter:
		if plan.Pull.Policy != nil {
			return nil, fmt.Errorf("core: self-scheduling chunk policy %q is simulator-only", plan.Pull.Policy.Name())
		}
		return newWallDynSched(n, workers, plan.Pull.Chunk), nil
	case plan.Pull != nil && plan.Pull.Kind == PullStealing:
		if plan.Pull.Steal != StealHalf || plan.Pull.Victim != RandomVictim {
			return nil, fmt.Errorf("core: stealing variants other than steal-half/random-victim are simulator-only")
		}
		return newWallStealSched(n, workers, plan.Pull.Seed), nil
	}
	return nil, fmt.Errorf("core: empty plan")
}

// WallScheduler runs SCF Fock builds through one seam Scheduler on the
// wall-clock backend, closing the feedback loop when the scheduler
// implements FeedbackScheduler: iteration k's per-task wall times are
// measured in the worker loop and Observed before iteration k+1 plans.
// A WallScheduler carries per-job state (task-set cache, measured-cost
// history) and is driven sequentially — one Fock build per SCF
// iteration — so it must not be shared between concurrent jobs.
type WallScheduler struct {
	sched   Scheduler
	fb      FeedbackScheduler // non-nil iff sched feeds back
	workers int

	tsSrc   *chem.FockWorkload
	ts      *TaskSet
	taskSec []float64
}

// wallPolicy resolves a SchedulerByName policy and checks, on an empty
// task set, that its plans lower onto the wall-clock backend (pull
// policies are task-set independent; assignment plans always lower).
func wallPolicy(name string, opt WallOptions) (Scheduler, error) {
	sched, err := SchedulerByName(name, SchedOptions{Seed: opt.Seed, Block: opt.Block})
	if err != nil {
		return nil, err
	}
	if _, err := newWallSchedFromPlan(sched.Plan(&TaskSet{}, 1), 0, 1); err != nil {
		return nil, err
	}
	return sched, nil
}

// WallSchedulerNames returns the SchedulerNames entries NewWallScheduler
// accepts — the policies that run on the wall-clock backend — in
// presentation order.
func WallSchedulerNames() []string {
	var names []string
	for _, name := range SchedulerNames() {
		if _, err := wallPolicy(name, WallOptions{}); err == nil {
			names = append(names, name)
		}
	}
	return names
}

// NewWallScheduler builds a wall-clock runner for the named scheduler
// policy (SchedulerByName vocabulary). Unknown names and policies whose
// plans cannot run on the wall-clock backend fail here, at setup, not
// mid-SCF, with an error that lists WallSchedulerNames.
func NewWallScheduler(name string, workers int, opt WallOptions) (*WallScheduler, error) {
	if workers < 1 {
		return nil, fmt.Errorf("core: workers = %d", workers)
	}
	sched, err := wallPolicy(name, opt)
	if err != nil {
		return nil, fmt.Errorf("%w (wall-clock policies: %s)", err, strings.Join(WallSchedulerNames(), ", "))
	}
	ws := &WallScheduler{sched: sched, workers: workers}
	ws.fb, _ = sched.(FeedbackScheduler)
	return ws, nil
}

// Name returns the underlying scheduler's policy name.
func (s *WallScheduler) Name() string { return s.sched.Name() }

// taskSetFor caches the seam task set per workload, so an SCF run hashes
// task identities once, not once per iteration.
func (s *WallScheduler) taskSetFor(fw *chem.FockWorkload) *TaskSet {
	if s.tsSrc != fw {
		s.tsSrc, s.ts = fw, FockTaskSet(fw)
	}
	return s.ts
}

// run plans one build over fw, lowers the plan, executes it (spin selects
// the unrestricted J/Kα/Kβ shape) and, for feedback policies, Observes
// the measured per-task times.
func (s *WallScheduler) run(fw *chem.FockWorkload, dj, dkA, dkB *linalg.Matrix, spin bool) (*WallResult, error) {
	ts := s.taskSetFor(fw)
	sched, err := newWallSchedFromPlan(s.sched.Plan(ts, s.workers), ts.Len(), s.workers)
	if err != nil {
		return nil, err
	}
	var taskSec []float64
	if s.fb != nil {
		if cap(s.taskSec) < ts.Len() {
			s.taskSec = make([]float64, ts.Len())
		}
		taskSec = s.taskSec[:ts.Len()]
	}
	res := wallRunJK(fw, dj, dkA, dkB, spin, s.workers, sched, taskSec)
	if s.fb != nil {
		s.fb.Observe(ts, taskSec)
	}
	return res, nil
}

// Build runs one restricted Fock build (F = H + J − K/2) under the
// scheduler's current plan and feeds measured task times back into
// feedback policies.
func (s *WallScheduler) Build(fw *chem.FockWorkload, h, d *linalg.Matrix) (*WallResult, error) {
	res, err := s.run(fw, d, d, nil, false)
	if err != nil {
		return nil, err
	}
	res.F = h.Clone()
	res.F.AddScaled(1, res.J)
	res.F.AddScaled(-0.5, res.KA)
	res.F.Symmetrize()
	return res, nil
}

// BuildUHF runs one unrestricted J/Kα/Kβ build under the scheduler's
// current plan, with the same feedback path as Build.
func (s *WallScheduler) BuildUHF(fw *chem.FockWorkload, dTot, dA, dB *linalg.Matrix) (*WallResult, error) {
	return s.run(fw, dTot, dA, dB, true)
}

// SchedulerFockBuilder returns a chem.FockBuilder that runs every Fock
// build of an SCF iteration through the named seam scheduler — the
// wall-clock twin of RunScheduler. Each returned builder owns private
// feedback state, so concurrent SCF jobs need one builder each.
func SchedulerFockBuilder(name string, workers int, opt WallOptions) (chem.FockBuilder, error) {
	ws, err := NewWallScheduler(name, workers, opt)
	if err != nil {
		return nil, err
	}
	return func(fw *chem.FockWorkload, h, d *linalg.Matrix) *linalg.Matrix {
		res, err := ws.Build(fw, h, d)
		if err != nil {
			// Unreachable: plan compatibility was validated at setup.
			panic(err)
		}
		return res.F
	}, nil
}

// SchedulerUHFFockBuilder is SchedulerFockBuilder's unrestricted
// counterpart.
func SchedulerUHFFockBuilder(name string, workers int, opt WallOptions) (chem.UHFFockBuilder, error) {
	ws, err := NewWallScheduler(name, workers, opt)
	if err != nil {
		return nil, err
	}
	return func(fw *chem.FockWorkload, dTot, dA, dB *linalg.Matrix) (j, kA, kB *linalg.Matrix) {
		res, err := ws.BuildUHF(fw, dTot, dA, dB)
		if err != nil {
			panic(err)
		}
		return res.J, res.KA, res.KB
	}, nil
}

// sortInts is a tiny insertion sort for the short per-task block lists
// (typically 2–8 entries), avoiding sort.Ints interface overhead during
// task-set construction.
func sortInts(a []int) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}
