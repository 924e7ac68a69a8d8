package core

import (
	"flag"
	"fmt"
	"math"
	"os"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// ---------------------------------------------------------------------
// Cost model

func TestCostModelFirstObservationReplacesSeed(t *testing.T) {
	cm := NewCostModel(0.5)
	keys := []uint64{1, 2}
	est := []float64{100, 200}
	cm.Observe(keys, est, []float64{3, 5})
	costs, known := cm.Costs(keys, est)
	if known != 2 {
		t.Fatalf("known = %d, want 2", known)
	}
	// Estimates are in different units; the first measurement must win
	// outright, not blend with the seed.
	if costs[0] != 3 || costs[1] != 5 {
		t.Errorf("costs = %v, want [3 5]", costs)
	}
}

func TestCostModelEWMABlend(t *testing.T) {
	cm := NewCostModel(0.25)
	keys := []uint64{7}
	est := []float64{1}
	cm.Observe(keys, est, []float64{8})
	cm.Observe(keys, est, []float64{4})
	costs, _ := cm.Costs(keys, est)
	want := 0.25*4 + 0.75*8
	if math.Abs(costs[0]-want) > 1e-12 {
		t.Errorf("blended cost = %g, want %g", costs[0], want)
	}
	if !cm.Known(7) || cm.Known(8) || cm.Len() != 1 {
		t.Errorf("history bookkeeping wrong: known(7)=%v known(8)=%v len=%d",
			cm.Known(7), cm.Known(8), cm.Len())
	}
}

func TestCostModelAlphaClampIsReplaceLatest(t *testing.T) {
	for _, alpha := range []float64{0, -1, 1.5} {
		cm := NewCostModel(alpha)
		keys := []uint64{1}
		cm.Observe(keys, []float64{1}, []float64{10})
		cm.Observe(keys, []float64{1}, []float64{2})
		costs, _ := cm.Costs(keys, []float64{1})
		if costs[0] != 2 {
			t.Errorf("alpha=%g: cost = %g, want 2 (replace-latest)", alpha, costs[0])
		}
	}
}

// Unmeasured keys fall back to their estimate scaled by the measured
// calibration ratio, so mixed known/unknown cost vectors stay in one
// unit system.
func TestCostModelCalibratesUnknownKeys(t *testing.T) {
	cm := NewCostModel(1)
	cm.Observe([]uint64{1, 2}, []float64{10, 30}, []float64{1, 3}) // Σmeas/Σest = 0.1
	costs, known := cm.Costs([]uint64{1, 99}, []float64{10, 50})
	if known != 1 {
		t.Fatalf("known = %d, want 1", known)
	}
	if costs[0] != 1 {
		t.Errorf("measured key cost = %g, want 1", costs[0])
	}
	if math.Abs(costs[1]-5) > 1e-12 {
		t.Errorf("calibrated estimate = %g, want 5 (= 50 × 0.1)", costs[1])
	}

	// Without any observation there is no calibration: raw estimates.
	fresh := NewCostModel(1)
	costs, known = fresh.Costs([]uint64{1}, []float64{42})
	if known != 0 || costs[0] != 42 {
		t.Errorf("fresh model: costs=%v known=%d, want raw estimate 42, known 0", costs, known)
	}
}

// ---------------------------------------------------------------------
// Task-set identity

func TestTaskSetKeysStableAndContentSensitive(t *testing.T) {
	w := Synthetic(SyntheticOptions{NumTasks: 40, Dist: "lognormal", Seed: 3})
	a, b := TaskSetOf(w), TaskSetOf(w)
	if !reflect.DeepEqual(a.Keys, b.Keys) {
		t.Fatal("keys differ between conversions of the same workload")
	}
	w.Tasks[7].EstCost *= 2
	c := TaskSetOf(w)
	if c.Keys[7] == a.Keys[7] {
		t.Error("changing task content kept the identity key")
	}
	if c.Keys[8] != a.Keys[8] {
		t.Error("untouched task changed key")
	}
}

// ---------------------------------------------------------------------
// Registry

func TestSchedulerByNameRoundTrip(t *testing.T) {
	for _, name := range SchedulerNames() {
		s, err := SchedulerByName(name, SchedOptions{Seed: 3})
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if s.Name() == "" {
			t.Errorf("%s: empty scheduler name", name)
		}
	}
	if _, err := SchedulerByName("no-such-policy", SchedOptions{}); err == nil ||
		!strings.Contains(err.Error(), "unknown scheduler") {
		t.Errorf("unknown name error = %v", err)
	}
}

// ---------------------------------------------------------------------
// Golden results: every registry policy, pinned

// resultsEqual compares everything deterministic about two simulator
// results (ScheduleCost is real wall time).
func resultsEqual(t *testing.T, label string, a, b *Result) {
	t.Helper()
	if got, want := goldenLine(label, a), goldenLine(label, b); got != want {
		t.Errorf("results differ:\n%s%s", got, want)
	}
}

// goldenLine renders the deterministic part of a Result exactly: floats
// in shortest round-trip form, no ScheduleCost (wall time).
func goldenLine(label string, r *Result) string {
	busy := make([]string, len(r.BusyTime))
	for i, b := range r.BusyTime {
		busy[i] = strconv.FormatFloat(b, 'g', -1, 64)
	}
	tasks := make([]string, len(r.TasksRun))
	for i, n := range r.TasksRun {
		tasks[i] = strconv.Itoa(n)
	}
	return fmt.Sprintf("%s model=%s makespan=%s busy=%s tasks=%s counter-ops=%d steals=%d failed-steals=%d\n",
		label, r.Model, strconv.FormatFloat(r.Makespan, 'g', -1, 64), strings.Join(busy, ","),
		strings.Join(tasks, ","), r.CounterOps, r.Steals, r.FailedSteals)
}

var update = flag.Bool("update", false, "rewrite testdata/scheduler_golden.txt")

// TestSchedulerGoldenResults pins every SchedulerNames() policy, at one
// rank and at seven, on a lognormal workload with noisy estimates: the
// reporting name, makespan, per-rank busy time and task counts, and the
// counter and steal telemetry, bit for bit. Regenerate with -update only
// for an intended change of simulated behaviour.
func TestSchedulerGoldenResults(t *testing.T) {
	const path = "testdata/scheduler_golden.txt"
	w := Synthetic(SyntheticOptions{NumTasks: 160, Dist: "lognormal", Seed: 3, EstNoise: 0.3})
	var b strings.Builder
	b.WriteString("# scheduler ranks model makespan busy tasks counter-ops steals failed-steals\n")
	for _, ranks := range []int{1, 7} {
		for _, name := range SchedulerNames() {
			res := Model{Sched: name, Opt: SchedOptions{Seed: 5}}.Run(w, testMachine(ranks))
			b.WriteString(goldenLine(fmt.Sprintf("%s P=%d", name, ranks), res))
		}
	}
	if *update {
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gotLines := strings.SplitAfter(b.String(), "\n")
	wantLines := strings.SplitAfter(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%d golden lines, want %d", len(gotLines), len(wantLines))
	}
	for i := range gotLines {
		if gotLines[i] != wantLines[i] {
			t.Errorf("line %d:\n got  %s want %s", i+1, gotLines[i], wantLines[i])
		}
	}
}

// A Model is a value: running one persistence Model twice on fresh
// machines must replay the same history, because each run builds its
// own scheduler and cost model.
func TestModelRunsDoNotShareHistory(t *testing.T) {
	w := Synthetic(SyntheticOptions{NumTasks: 120, Dist: "lognormal", Seed: 4, EstNoise: 0.3})
	mod := Model{Sched: "persistence"}
	_, first := mod.RunWithHistory(w, testMachine(6))
	_, second := mod.RunWithHistory(w, testMachine(6))
	if len(first) != 3 || !reflect.DeepEqual(first, second) {
		t.Errorf("histories differ across runs of one Model: %v vs %v", first, second)
	}
}

// ---------------------------------------------------------------------
// Feedback protocol

// With noisy estimates, the feedback scheduler must recover: once
// iteration 1's measured times are observed, iteration 2+ rebalances on
// truth and the makespan must improve on the estimate-only LPT plan.
func TestRunSchedulerIterationsFeedbackImproves(t *testing.T) {
	w := Synthetic(SyntheticOptions{NumTasks: 240, Dist: "lognormal", Seed: 9, EstNoise: 1.5})
	ranks := 8

	lpt, _ := SchedulerByName("lpt", SchedOptions{})
	estOnly := RunScheduler(lpt, w, testMachine(ranks))

	fb, _ := SchedulerByName("persistence-feedback", SchedOptions{})
	_, history := RunSchedulerIterations(fb, w, testMachine(ranks), 3)
	if len(history) != 3 {
		t.Fatalf("history = %v, want 3 iterations", history)
	}
	// Iteration 1 is the estimate-seeded warm start — same information as
	// plain LPT — so it must match estimate-only exactly.
	if history[0] != estOnly.Makespan {
		t.Errorf("warm-start iteration 1 makespan %g != estimate-only LPT %g", history[0], estOnly.Makespan)
	}
	if history[1] >= history[0] {
		t.Errorf("feedback did not improve: iteration 2 makespan %g >= iteration 1 %g", history[1], history[0])
	}
	if history[2] > history[0] {
		t.Errorf("feedback regressed past the cold start: %v", history)
	}
}

// Classic persistence (alpha 1, no warm start) through the seam keeps
// its contract: iteration 1 is the static block schedule, iteration 2+
// rebalances on measured times.
func TestPersistenceSeamColdStartIsStaticBlock(t *testing.T) {
	w := Synthetic(SyntheticOptions{NumTasks: 120, Dist: "lognormal", Seed: 4})
	ranks := 6
	static := RunScheduler(StaticBlockSched{}, w, testMachine(ranks))
	p, _ := SchedulerByName("persistence", SchedOptions{})
	_, history := RunSchedulerIterations(p, w, testMachine(ranks), 2)
	if history[0] != static.Makespan {
		t.Errorf("persistence cold start %g != static block %g", history[0], static.Makespan)
	}
	if history[1] >= history[0] {
		t.Errorf("persistence did not improve after measuring: %v", history)
	}
}

// ---------------------------------------------------------------------
// History keyed by task identity, not slice index

// Re-blocking (or re-screening) a workload between runs regenerates the
// task decomposition: same total work, different task boundaries. The
// cost history must not follow slice indices onto the new tasks — the
// scheduler has to cold-start on the unseen identities.
func TestPersistenceHistoryKeyedByIdentityAcrossReblock(t *testing.T) {
	wA := Synthetic(SyntheticOptions{NumTasks: 100, Dist: "lognormal", Seed: 8})
	wB := Synthetic(SyntheticOptions{NumTasks: 100, Dist: "lognormal", Seed: 21})
	ranks := 5

	cm := NewCostModel(1)
	sched := NewPersistenceSched(PersistenceOptions{Costs: cm})
	tsA, tsB := TaskSetOf(wA), TaskSetOf(wB)

	// Measure workload A: its keys enter the shared history.
	planA := sched.Plan(tsA, ranks)
	if !reflect.DeepEqual(planA.Assign, staticBlockAssign(tsA.Len(), ranks)) {
		t.Fatal("cold start is not the static block assignment")
	}
	sched.Observe(tsA, tsA.Costs)
	if reflect.DeepEqual(sched.Plan(tsA, ranks).Assign, planA.Assign) {
		t.Fatal("persistence did not rebalance workload A after measuring it")
	}

	// Workload B has the same length but disjoint task identities: the
	// stale-by-index bug would hand it A's measurements; keyed history
	// must cold-start instead.
	for i, k := range tsB.Keys {
		if cm.Known(k) {
			t.Fatalf("task %d of workload B unexpectedly has history", i)
		}
	}
	planB := sched.Plan(tsB, ranks)
	if !reflect.DeepEqual(planB.Assign, staticBlockAssign(tsB.Len(), ranks)) {
		t.Error("unseen task set did not cold-start: index-keyed history leaked across decompositions")
	}

	// End-to-end: a persistence Model on the re-generated workload
	// behaves exactly like a fresh persistence run.
	shared := Model{Sched: "persistence", Opt: SchedOptions{Costs: NewCostModel(1)}, Iterations: 2}
	shared.RunWithHistory(wA, testMachine(ranks))
	withHistory, _ := shared.RunWithHistory(wB, testMachine(ranks))
	fresh, _ := Model{Sched: "persistence", Iterations: 2}.RunWithHistory(wB, testMachine(ranks))
	resultsEqual(t, "reblocked persistence", fresh, withHistory)
}

// ---------------------------------------------------------------------
// Plan dispatch

func TestRunSchedulerEmptyPlanPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("empty plan did not panic")
		}
	}()
	w := Synthetic(SyntheticOptions{NumTasks: 4, Seed: 1, Dist: "uniform"})
	RunScheduler(emptyPlanSched{}, w, testMachine(2))
}

type emptyPlanSched struct{}

func (emptyPlanSched) Name() string             { return "empty" }
func (emptyPlanSched) Plan(*TaskSet, int) *Plan { return &Plan{} }

func TestRunSchedulerIterationsRejectsPullPolicies(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("pull plan in iterative protocol did not panic")
		}
	}()
	w := Synthetic(SyntheticOptions{NumTasks: 4, Seed: 1, Dist: "uniform"})
	RunSchedulerIterations(CounterSched{Chunk: 1}, w, testMachine(2), 2)
}
