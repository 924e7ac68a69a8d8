package core

import (
	"fmt"
	"hash/fnv"
	"math"

	"execmodels/internal/cluster"
	"execmodels/internal/hypergraph"
	"execmodels/internal/semimatching"
)

// This file is the scheduler seam shared by the simulator and the
// wall-clock backend: a backend-neutral task-set description goes in, a
// per-rank assignment or a pull policy comes out, and schedulers that
// implement FeedbackScheduler fold measured per-task costs back into
// their cost model for the next iteration. Each policy is written once,
// here, and named once, in SchedulerByName. The simulator runs its plans
// through RunScheduler / RunSchedulerIterations (the engines in
// static.go, chunked.go and stealing.go; registry.go's Model is the
// by-name entry point), and the wall-clock builders (wallsched.go) run
// the same plans on goroutines.

// TaskSet is the backend-neutral description of one schedulable task
// set: stable per-task identity keys, scheduler-visible cost estimates,
// and the data-block geometry the locality-aware policies exploit.
type TaskSet struct {
	Name string
	// Keys identify tasks across iterations and across re-blocked or
	// re-screened decompositions: equal key ⇒ same task content. Cost
	// history is keyed by these, never by slice index.
	Keys []uint64
	// Costs are the scheduler-visible cost estimates (EstCost for
	// simulator workloads, the NBF⁴-style ERI flop estimate for Fock
	// task sets).
	Costs []float64
	// Blocks lists, per task, the data blocks it reads/updates.
	Blocks     [][]int
	NumBlocks  int
	BlockBytes []int
}

// Len returns the number of tasks.
func (ts *TaskSet) Len() int { return len(ts.Keys) }

// TaskSetOf converts a simulator workload into the scheduler-seam
// description. Keys hash each task's content (ID, estimate, blocks), so
// re-generated task sets with different decompositions get fresh keys.
func TaskSetOf(w *Workload) *TaskSet {
	ts := &TaskSet{
		Name:       w.Name,
		Keys:       make([]uint64, len(w.Tasks)),
		Costs:      make([]float64, len(w.Tasks)),
		Blocks:     make([][]int, len(w.Tasks)),
		NumBlocks:  w.NumBlocks,
		BlockBytes: w.BlockBytes,
	}
	for i := range w.Tasks {
		t := &w.Tasks[i]
		ts.Keys[i] = taskKey(t)
		ts.Costs[i] = t.EstCost
		ts.Blocks[i] = t.Blocks
	}
	return ts
}

// taskKey hashes one simulator task's identity: its ID, its cost
// estimate and the blocks it touches.
func taskKey(t *Task) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	put(uint64(t.ID))
	put(math.Float64bits(t.EstCost))
	for _, blk := range t.Blocks {
		put(uint64(blk))
	}
	return h.Sum64()
}

// PullKind selects the runtime discipline of a pull-based plan.
type PullKind int

const (
	// PullCounter pulls chunks of consecutive task indices from a shared
	// fetch-and-add counter (the NXTVAL idiom).
	PullCounter PullKind = iota
	// PullStealing starts from a static block distribution and steals
	// from per-rank deques at runtime.
	PullStealing
)

// PullPolicy describes a pull-based (runtime-scheduled) plan: the tasks
// have no fixed owner, workers claim them while executing.
type PullPolicy struct {
	Kind PullKind
	// Chunk is the counter fetch block (PullCounter; <1 means 1).
	Chunk int
	// Policy, when non-nil, computes self-scheduling chunk sizes from
	// the remaining-task count (simulator only).
	Policy ChunkPolicy
	// Seed drives victim selection (PullStealing).
	Seed int64
	// Steal/Victim refine the stealing discipline.
	Steal  StealPolicy
	Victim VictimPolicy
}

// Plan is one scheduler's decision for one task set on one rank count:
// either a fixed task→rank assignment (Assign) or a pull policy (Pull),
// never both.
type Plan struct {
	// Assign maps task index → rank; nil for pull-based plans.
	Assign []int
	// Pull is the runtime discipline for pull-based plans; nil otherwise.
	Pull *PullPolicy
	// PlanCost is the real (wall-clock) time in seconds spent computing
	// the plan — the partitioner-cost quantity experiment T4 compares.
	// Zero for the cheap policies.
	PlanCost WallSeconds
}

// Scheduler is the single interface every balancing policy implements:
// task-set description in, assignment or pull policy out. One Scheduler
// drives both the simulator (RunScheduler) and the wall-clock backend
// (SchedulerFockBuilder).
type Scheduler interface {
	Name() string
	Plan(ts *TaskSet, ranks int) *Plan
}

// FeedbackScheduler is a Scheduler that folds measured per-task costs
// (simulated seconds or wall seconds, whatever the backend executed)
// back into its cost model, closing the obs→scheduler loop for the next
// Plan call.
type FeedbackScheduler interface {
	Scheduler
	// Observe records iteration k's measured per-task costs, aligned
	// with ts (measured[i] belongs to ts.Keys[i]).
	Observe(ts *TaskSet, measured []float64)
}

// ---------------------------------------------------------------------
// Cost model

// CostModel is the measured-cost store behind the feedback schedulers:
// per-task EWMA over iterations, keyed by task identity and seeded from
// the scheduler-visible estimate. The first measurement for a key
// replaces the seed outright (estimates and measurements are in
// different units); later measurements blend with weight Alpha. Tasks
// never observed fall back to their estimate scaled by the measured
// calibration ratio, so mixed known/unknown task sets stay comparable.
//
// A CostModel is not safe for concurrent use; each SCF job or simulator
// run owns its own.
type CostModel struct {
	alpha float64
	m     map[uint64]float64 // task key → EWMA-blended measured cost
	calib float64            // Σmeasured/Σest of the latest observation, 0 until then
}

// NewCostModel returns an empty cost model with the given EWMA weight
// for new measurements. alpha outside (0, 1] selects 1 — the classic
// persistence behavior where the latest measurement replaces history.
func NewCostModel(alpha float64) *CostModel {
	if alpha <= 0 || alpha > 1 {
		alpha = 1
	}
	return &CostModel{alpha: alpha, m: map[uint64]float64{}}
}

// Observe folds one iteration's measured per-task costs into the model.
// keys, est and measured are aligned; est seeds the calibration ratio
// used for keys that have never been measured.
func (c *CostModel) Observe(keys []uint64, est, measured []float64) {
	var sumEst, sumMeas float64
	for i, k := range keys {
		cost := measured[i]
		if old, ok := c.m[k]; ok {
			cost = c.alpha*measured[i] + (1-c.alpha)*old
		}
		c.m[k] = cost
		sumEst += est[i]
		sumMeas += measured[i]
	}
	if sumEst > 0 && sumMeas > 0 {
		c.calib = sumMeas / sumEst
	}
}

// Costs returns the scheduler-visible cost vector for a task set:
// blended measurements where the key is known, calibrated estimates
// otherwise. known reports how many tasks had measured history — zero
// means the model has nothing to say about this task set.
func (c *CostModel) Costs(keys []uint64, est []float64) (costs []float64, known int) {
	costs = make([]float64, len(keys))
	for i, k := range keys {
		if cost, ok := c.m[k]; ok {
			costs[i] = cost
			known++
			continue
		}
		if c.calib > 0 {
			costs[i] = est[i] * c.calib
		} else {
			costs[i] = est[i]
		}
	}
	return costs, known
}

// ---------------------------------------------------------------------
// Assignment-based schedulers

// staticBlockAssign deals tasks into P contiguous blocks by index — the
// one static decomposition shared by StaticBlockSched, the stealing
// engine's initial queues and the persistence cold start.
func staticBlockAssign(n, ranks int) []int {
	assign := make([]int, n)
	per := (n + ranks - 1) / ranks
	for i := range assign {
		r := i / per
		if r >= ranks {
			r = ranks - 1
		}
		assign[i] = r
	}
	return assign
}

// StaticBlockSched plans the traditional static schedule: tasks split
// into P contiguous blocks by index. With the triangular cost profile of
// the Fock build's pair loop this is the schedule the paper's headline
// 50% improvement is measured against.
type StaticBlockSched struct{}

// Name implements Scheduler.
func (StaticBlockSched) Name() string { return "static-block" }

// Plan implements Scheduler.
func (StaticBlockSched) Plan(ts *TaskSet, ranks int) *Plan {
	return &Plan{Assign: staticBlockAssign(ts.Len(), ranks)}
}

// StaticCyclicSched plans the round-robin schedule (task i → rank i mod
// P): it statistically spreads a monotone cost profile but stays
// oblivious to actual costs and to runtime variability.
type StaticCyclicSched struct{}

// Name implements Scheduler.
func (StaticCyclicSched) Name() string { return "static-cyclic" }

// Plan implements Scheduler.
func (StaticCyclicSched) Plan(ts *TaskSet, ranks int) *Plan {
	assign := make([]int, ts.Len())
	for i := range assign {
		assign[i] = i % ranks
	}
	return &Plan{Assign: assign}
}

// LPTSched plans longest-processing-time-first list scheduling over the
// task-set cost estimates — the estimate-only baseline that
// measured-cost assignment (persistence-feedback) is compared against.
type LPTSched struct{}

// Name implements Scheduler.
func (LPTSched) Name() string { return "lpt" }

// Plan implements Scheduler.
func (LPTSched) Plan(ts *TaskSet, ranks int) *Plan {
	b := semimatching.Complete(ts.Len(), ranks)
	return &Plan{Assign: semimatching.LPT(b, ts.Costs).Of}
}

// SemiMatchingSched plans the paper's novel balancer: tasks and ranks
// form a bipartite graph whose edges connect each task to the owners of
// the data blocks it touches (plus a few random ranks for connectivity),
// and a weighted semi-matching over the estimates balances load and
// preserves locality at once — at a tiny fraction of the cost of
// hypergraph partitioning.
type SemiMatchingSched struct {
	// ExtraEdges is the number of additional random candidate ranks per
	// task (default 2).
	ExtraEdges int
	Seed       int64
}

// Name implements Scheduler.
func (SemiMatchingSched) Name() string { return "semi-matching" }

// Plan implements Scheduler.
func (s SemiMatchingSched) Plan(ts *TaskSet, ranks int) *Plan {
	sw := startStopwatch()
	b := buildTaskGraph(ts.Len(), ranks, s.ExtraEdges, s.Seed, func(i int) []int { return ts.Blocks[i] })
	assign := semimatching.WeightedSemiMatch(b, ts.Costs).Of
	return &Plan{Assign: assign, PlanCost: sw.seconds()}
}

// HypergraphSched plans the traditional high-quality baseline: tasks are
// hypergraph vertices weighted by estimated cost, data blocks are nets,
// and a multilevel partitioner splits the tasks into P parts minimizing
// communication volume under a balance constraint. Excellent schedules,
// at orders of magnitude more planning cost than the semi-matching — the
// trade-off experiment T4 quantifies.
type HypergraphSched struct {
	Eps  float64 // balance slack (default 0.05)
	Seed int64
}

// Name implements Scheduler.
func (h HypergraphSched) Name() string { return "hypergraph" }

// Plan implements Scheduler.
func (h HypergraphSched) Plan(ts *TaskSet, ranks int) *Plan {
	sw := startStopwatch()
	hg := buildHypergraph(ts.Len(), ts.NumBlocks, ts.BlockBytes,
		func(i int) float64 { return ts.Costs[i] },
		func(i int) []int { return ts.Blocks[i] })
	assign := hypergraph.Partition(hg, ranks, hypergraph.Options{Eps: h.Eps, Seed: h.Seed}).Part
	return &Plan{Assign: assign, PlanCost: sw.seconds()}
}

// ---------------------------------------------------------------------
// Pull-based schedulers

// CounterSched plans the centralized dynamic discipline: ranks pull
// chunks of task indices from a shared fetch-and-add counter (the Global
// Arrays NXTVAL idiom). Perfect balance in principle; in practice the
// counter round-trips and their serialization at the home rank put a
// floor under task granularity and a ceiling on scaling. Policy, when
// set, selects a self-scheduling chunk family (simulator only);
// otherwise Chunk is the fixed fetch block.
type CounterSched struct {
	Chunk  int
	Policy ChunkPolicy
}

// Name implements Scheduler.
func (c CounterSched) Name() string {
	if c.Policy != nil {
		return "self-sched-" + c.Policy.Name()
	}
	return "dynamic-counter"
}

// Plan implements Scheduler.
func (c CounterSched) Plan(ts *TaskSet, ranks int) *Plan {
	return &Plan{Pull: &PullPolicy{Kind: PullCounter, Chunk: c.Chunk, Policy: c.Policy}}
}

// StealingSched plans the distributed-dynamic discipline: static block
// queues plus runtime work stealing.
type StealingSched struct {
	Steal  StealPolicy
	Victim VictimPolicy
	Seed   int64
}

// Name implements Scheduler.
func (s StealingSched) Name() string {
	switch {
	case s.Steal == StealOne && s.Victim == MostLoadedVictim:
		return "work-stealing-one-maxvictim"
	case s.Steal == StealOne:
		return "work-stealing-one"
	case s.Victim == MostLoadedVictim:
		return "work-stealing-maxvictim"
	default:
		return "work-stealing"
	}
}

// Plan implements Scheduler.
func (s StealingSched) Plan(ts *TaskSet, ranks int) *Plan {
	return &Plan{Pull: &PullPolicy{
		Kind: PullStealing, Seed: s.Seed,
		Steal: s.Steal, Victim: s.Victim,
	}}
}

// ---------------------------------------------------------------------
// Persistence / feedback scheduler

// PersistenceOptions configures NewPersistenceSched.
type PersistenceOptions struct {
	// Rebalance selects the measured-cost assignment: "lpt" (default)
	// or "semimatching" (locality-restricted, as persistence-sm).
	Rebalance string
	// Alpha is the EWMA weight of new measurements; outside (0, 1] it
	// selects 1, the classic replace-latest persistence behavior.
	Alpha float64
	// WarmStart plans LPT over (calibrated) estimates before any
	// measurement exists, instead of the classic static block cold
	// start — the estimate-seeded mode of the feedback loop.
	WarmStart bool
	// Seed and ExtraEdges parameterize the semi-matching graph.
	Seed       int64
	ExtraEdges int
	// Costs, when non-nil, is the shared measured-cost history. Leaving
	// it nil gives the scheduler a private model.
	Costs *CostModel
}

// PersistenceSched is the feedback scheduler for iterative applications
// like SCF, which rebuilds the Fock matrix every iteration over the same
// task set: it plans from its cost model (cold start until the first
// Observe, measured-cost rebalancing afterwards) and implements
// FeedbackScheduler so each backend's measured per-task costs drive the
// next iteration's assignment. The principle of persistence — task
// costs change slowly across iterations — makes the measured profile a
// better cost model than any a-priori estimate, over either virtual or
// wall time.
type PersistenceSched struct {
	name       string
	rebalance  string
	warmStart  bool
	seed       int64
	extraEdges int
	cm         *CostModel

	// Semi-matching graph cache: rebuilt only when the task set or rank
	// count changes, so an iterative run builds its graph once.
	graphTS    *TaskSet
	graphRanks int
	graph      *semimatching.Bipartite
}

// NewPersistenceSched builds a persistence/feedback scheduler.
func NewPersistenceSched(opt PersistenceOptions) *PersistenceSched {
	if opt.Rebalance == "" {
		opt.Rebalance = "lpt"
	}
	cm := opt.Costs
	if cm == nil {
		cm = NewCostModel(opt.Alpha)
	}
	var name string
	switch {
	case opt.WarmStart || (opt.Alpha > 0 && opt.Alpha < 1):
		name = "persistence-feedback"
	case opt.Rebalance == "semimatching":
		name = "persistence-sm"
	default:
		name = "persistence"
	}
	return &PersistenceSched{
		name:       name,
		rebalance:  opt.Rebalance,
		warmStart:  opt.WarmStart,
		seed:       opt.Seed,
		extraEdges: opt.ExtraEdges,
		cm:         cm,
	}
}

// Name implements Scheduler.
func (p *PersistenceSched) Name() string { return p.name }

// Costs exposes the scheduler's cost model (for export and tests).
func (p *PersistenceSched) Costs() *CostModel { return p.cm }

// Plan implements Scheduler. History is consulted by task identity key,
// so a re-blocked or re-screened task set (fresh keys) falls back to the
// cold start instead of reusing stale measurements.
func (p *PersistenceSched) Plan(ts *TaskSet, ranks int) *Plan {
	costs, known := p.cm.Costs(ts.Keys, ts.Costs)
	if known == 0 && !p.warmStart {
		// Classic persistence cold start: static block while measuring.
		return &Plan{Assign: staticBlockAssign(ts.Len(), ranks)}
	}
	if p.rebalance == "semimatching" {
		return &Plan{Assign: semimatching.WeightedSemiMatch(p.graphFor(ts, ranks), costs).Of}
	}
	b := semimatching.Complete(ts.Len(), ranks)
	return &Plan{Assign: semimatching.LPT(b, costs).Of}
}

// Observe implements FeedbackScheduler.
func (p *PersistenceSched) Observe(ts *TaskSet, measured []float64) {
	p.cm.Observe(ts.Keys, ts.Costs, measured)
}

func (p *PersistenceSched) graphFor(ts *TaskSet, ranks int) *semimatching.Bipartite {
	if p.graph == nil || p.graphTS != ts || p.graphRanks != ranks {
		p.graphTS, p.graphRanks = ts, ranks
		p.graph = buildTaskGraph(ts.Len(), ranks, p.extraEdges, p.seed, func(i int) []int { return ts.Blocks[i] })
	}
	return p.graph
}

// ---------------------------------------------------------------------
// Registry

// SchedOptions carries the tunables of SchedulerByName.
type SchedOptions struct {
	// Seed drives stealing victim selection and semi-matching extra
	// edges.
	Seed int64
	// Block is the dynamic-counter fetch chunk (<1 means 1).
	Block int
	// ExtraEdges / Eps parameterize semi-matching / hypergraph.
	ExtraEdges int
	Eps        float64
	// Alpha is the feedback EWMA weight (persistence-feedback only;
	// outside (0,1] selects the default 0.5).
	Alpha float64
	// Costs, when non-nil, shares measured-cost history with the
	// persistence schedulers.
	Costs *CostModel
}

// feedbackAlphaDefault is the EWMA weight of the persistence-feedback
// policy: half new measurement, half history, smoothing iteration noise
// without going stale.
const feedbackAlphaDefault = 0.5

// SchedulerByName instantiates a balancing policy from its canonical
// name (or a common alias). The names double as the benchsuite -gantt
// and the scfd and hfscf -sched vocabularies.
func SchedulerByName(name string, opt SchedOptions) (Scheduler, error) {
	switch name {
	case "static", "static-block":
		return StaticBlockSched{}, nil
	case "cyclic", "static-cyclic":
		return StaticCyclicSched{}, nil
	case "dynamic", "dynamic-counter":
		return CounterSched{Chunk: opt.Block}, nil
	case "self-sched-guided":
		return CounterSched{Policy: GuidedChunk{}}, nil
	case "self-sched-factoring":
		return CounterSched{Policy: FactoringChunk{}}, nil
	case "stealing", "work-stealing":
		return StealingSched{Seed: opt.Seed}, nil
	case "work-stealing-one":
		return StealingSched{Steal: StealOne, Seed: opt.Seed}, nil
	case "work-stealing-maxvictim":
		return StealingSched{Victim: MostLoadedVictim, Seed: opt.Seed}, nil
	case "lpt":
		return LPTSched{}, nil
	case "semimatching", "semi-matching":
		return SemiMatchingSched{ExtraEdges: opt.ExtraEdges, Seed: opt.Seed}, nil
	case "hypergraph":
		return HypergraphSched{Eps: opt.Eps, Seed: opt.Seed}, nil
	case "persistence":
		return NewPersistenceSched(PersistenceOptions{Seed: opt.Seed, Costs: opt.Costs}), nil
	case "persistence-sm":
		return NewPersistenceSched(PersistenceOptions{
			Rebalance: "semimatching", Seed: opt.Seed, ExtraEdges: opt.ExtraEdges, Costs: opt.Costs,
		}), nil
	case "persistence-feedback":
		alpha := opt.Alpha
		if alpha <= 0 || alpha >= 1 {
			alpha = feedbackAlphaDefault
		}
		return NewPersistenceSched(PersistenceOptions{
			Alpha: alpha, WarmStart: true, Seed: opt.Seed, Costs: opt.Costs,
		}), nil
	}
	return nil, fmt.Errorf("core: unknown scheduler %q", name)
}

// SchedulerNames returns the canonical scheduler names accepted by
// SchedulerByName, in presentation order.
func SchedulerNames() []string {
	return []string{
		"static", "cyclic", "dynamic", "self-sched-guided", "self-sched-factoring",
		"stealing", "work-stealing-one", "work-stealing-maxvictim",
		"lpt", "semimatching", "hypergraph",
		"persistence", "persistence-sm", "persistence-feedback",
	}
}

// ---------------------------------------------------------------------
// Simulator drivers

// RunScheduler plans one task set with sched and executes the plan on
// the simulator. A stateless scheduler needs nothing more; Model adds
// by-name construction and the iteration protocol.
func RunScheduler(sched Scheduler, w *Workload, m *cluster.Machine) *Result {
	return runPlan(sched.Name(), sched.Plan(TaskSetOf(w), m.P), w, m, nil)
}

// runPlan dispatches a plan to the simulator execution engines.
// measured, when non-nil, captures per-task simulated times
// (assignment-based plans only).
func runPlan(name string, plan *Plan, w *Workload, m *cluster.Machine, measured []float64) *Result {
	switch {
	case plan.Assign != nil:
		return runAssignment(name, w, m, plan.Assign, plan.PlanCost, measured)
	case plan.Pull != nil && plan.Pull.Kind == PullCounter:
		policy := plan.Pull.Policy
		if policy == nil {
			chunk := plan.Pull.Chunk
			if chunk < 1 {
				chunk = 1
			}
			policy = FixedChunk(chunk)
		}
		return runCounterSim(name, w, m, policy)
	case plan.Pull != nil && plan.Pull.Kind == PullStealing:
		return runStealingSim(name, plan.Pull, w, m)
	}
	panic(fmt.Sprintf("core: scheduler %q produced an empty plan", name))
}

// RunSchedulerIterations runs the iterative feedback protocol on the
// simulator: plan, execute measuring per-task times, observe, repeat.
// It returns the final iteration's result and the per-iteration
// makespans. Non-feedback schedulers simply replan every iteration.
func RunSchedulerIterations(sched Scheduler, w *Workload, m *cluster.Machine, iters int) (*Result, []float64) {
	if iters < 1 {
		iters = 3
	}
	ts := TaskSetOf(w)
	measured := make([]float64, ts.Len())
	fb, _ := sched.(FeedbackScheduler)
	var history []float64
	var res *Result
	for it := 0; it < iters; it++ {
		plan := sched.Plan(ts, m.P)
		if plan.Assign == nil {
			panic(fmt.Sprintf("core: iterative scheduler %q must produce assignment plans", sched.Name()))
		}
		// Each iteration restarts the virtual clocks at zero; reset the
		// trace so it describes the same (final) iteration the Result does.
		m.Trace.Reset()
		res = runAssignment(sched.Name(), w, m, plan.Assign, plan.PlanCost, measured)
		history = append(history, res.Makespan)
		if fb != nil {
			fb.Observe(ts, measured)
		}
	}
	return res, history
}
