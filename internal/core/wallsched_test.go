package core

import (
	"os"
	"reflect"
	"strings"
	"testing"

	"execmodels/internal/chem"
)

// ---------------------------------------------------------------------
// Task-set construction

func TestFockTaskSetGeometry(t *testing.T) {
	fw := fockWorkload(t, 2)
	ts := FockTaskSet(fw)
	if ts.Len() != len(fw.Tasks) {
		t.Fatalf("task set has %d tasks, workload %d", ts.Len(), len(fw.Tasks))
	}
	if ts.NumBlocks != len(fw.Basis.Shells) || len(ts.BlockBytes) != ts.NumBlocks {
		t.Fatalf("block geometry: %d blocks, %d sizes, want %d shells",
			ts.NumBlocks, len(ts.BlockBytes), len(fw.Basis.Shells))
	}
	for i, blocks := range ts.Blocks {
		if len(blocks) == 0 {
			t.Fatalf("task %d touches no blocks", i)
		}
		for j := 1; j < len(blocks); j++ {
			if blocks[j] <= blocks[j-1] {
				t.Fatalf("task %d blocks %v not sorted/deduped", i, blocks)
			}
		}
	}
	if ts.Costs[0] != fw.Tasks[0].EstFlops {
		t.Errorf("cost[0] = %g, want EstFlops %g", ts.Costs[0], fw.Tasks[0].EstFlops)
	}
}

// Keys identify task content: stable across conversions, fresh after a
// re-block (different task boundaries ⇒ different identities), so cost
// history can never silently follow slice indices onto new tasks.
func TestFockTaskSetKeysTrackContent(t *testing.T) {
	fw := fockWorkload(t, 2)
	a, b := FockTaskSet(fw), FockTaskSet(fw)
	if !reflect.DeepEqual(a.Keys, b.Keys) {
		t.Fatal("keys differ between conversions of the same workload")
	}
	seen := map[uint64]bool{}
	for _, k := range a.Keys {
		if seen[k] {
			t.Fatal("duplicate task key within one workload")
		}
		seen[k] = true
	}
	for _, k := range FockTaskSet(fw.Reblock(1)).Keys {
		if seen[k] {
			t.Fatal("re-blocked task reused an old identity key")
		}
	}
}

// ---------------------------------------------------------------------
// Plan lowering

func TestNewWallSchedFromPlanRejectsSimulatorOnly(t *testing.T) {
	cases := []struct {
		name string
		plan *Plan
		want string
	}{
		{"self-sched", &Plan{Pull: &PullPolicy{Kind: PullCounter, Policy: GuidedChunk{}}}, "simulator-only"},
		{"steal-one", &Plan{Pull: &PullPolicy{Kind: PullStealing, Steal: StealOne}}, "steal-half"},
		{"max-victim", &Plan{Pull: &PullPolicy{Kind: PullStealing, Victim: MostLoadedVictim}}, "steal-half"},
		{"empty", &Plan{}, "empty plan"},
	}
	for _, c := range cases {
		if _, err := newWallSchedFromPlan(c.plan, 8, 2); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want substring %q", c.name, err, c.want)
		}
	}
}

// WallSchedulerNames partitions the registry: every listed policy
// constructs, every other SchedulerNames entry is simulator-only and must
// fail at construction, not mid-SCF, with an error that lists the policies
// that do run.
func TestNewWallSchedulerValidatesEagerly(t *testing.T) {
	wall := WallSchedulerNames()
	if !reflect.DeepEqual(wall, wallSchedPolicyCases()) {
		t.Fatalf("WallSchedulerNames() = %v, want %v", wall, wallSchedPolicyCases())
	}
	listed := map[string]bool{}
	for _, name := range wall {
		listed[name] = true
		for _, workers := range []int{1, 3} {
			if _, err := NewWallScheduler(name, workers, WallOptions{}); err != nil {
				t.Errorf("%s workers=%d: %v", name, workers, err)
			}
		}
	}
	valid := strings.Join(wall, ", ")
	for _, name := range SchedulerNames() {
		if listed[name] {
			continue
		}
		_, err := NewWallScheduler(name, 2, WallOptions{})
		if err == nil || !strings.Contains(err.Error(), "simulator-only") || !strings.Contains(err.Error(), valid) {
			t.Errorf("%s: err = %v, want simulator-only and the valid names", name, err)
		}
	}
	if _, err := NewWallScheduler("no-such-policy", 2, WallOptions{}); err == nil || !strings.Contains(err.Error(), valid) {
		t.Errorf("unknown policy: err = %v, want the valid names", err)
	}
	if _, err := NewWallScheduler("static", 0, WallOptions{}); err == nil {
		t.Error("zero workers accepted")
	}
}

// README's -sched table is this vocabulary, row for row.
func TestReadmeSchedTableListsWallSchedulerNames(t *testing.T) {
	raw, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, table, ok := strings.Cut(string(raw), "| `-sched` | Plan | Notes |\n|---|---|---|\n")
	if !ok {
		t.Fatal("README.md has no -sched table")
	}
	var rows []string
	for _, line := range strings.Split(table, "\n") {
		if !strings.HasPrefix(line, "| `") {
			break
		}
		rows = append(rows, strings.Split(line, "`")[1])
	}
	if want := WallSchedulerNames(); !reflect.DeepEqual(rows, want) {
		t.Errorf("README -sched table rows = %v, want %v", rows, want)
	}
}

// The fixed-assignment lowering walks each worker's list in ascending
// task order, so a static-block assignment runs contiguous blocks of
// ceil(n/workers) tasks, front to back.
func TestWallAssignSchedOrder(t *testing.T) {
	const n, workers = 11, 3
	s := newWallAssignSched(staticBlockAssign(n, workers), workers)
	for wk, want := range [][]int{{0, 1, 2, 3}, {4, 5, 6, 7}, {8, 9, 10}} {
		var got []int
		for id, ok := s.next(wk); ok; id, ok = s.next(wk) {
			got = append(got, id)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("worker %d ran %v, want %v", wk, got, want)
		}
	}
}

// The per-worker cursor walk must stay allocation-free: it runs between
// every pair of tasks on the hot path.
func TestWallAssignSchedNextZeroAlloc(t *testing.T) {
	s := newWallAssignSched(staticBlockAssign(4096, 4), 4)
	if avg := testing.AllocsPerRun(1000, func() {
		s.next(0)
		s.cursors[0].n = 0
	}); avg != 0 {
		t.Errorf("next allocates %.1f/op, want 0", avg)
	}
}

// ---------------------------------------------------------------------
// Differential matrix on the wall backend

// wallSchedPolicyCases is the policy axis of the seam matrix: every
// wall-capable SchedulerByName policy.
func wallSchedPolicyCases() []string {
	return []string{"static", "cyclic", "dynamic", "stealing",
		"lpt", "semimatching", "hypergraph",
		"persistence", "persistence-sm", "persistence-feedback"}
}

// Every seam policy, at one/odd/NumCPU workers, must reproduce the
// serial Fock matrix within the differential tolerance.
func TestWallSchedulerPolicyMatrix(t *testing.T) {
	fw := fockWorkload(t, 2)
	mol := chem.WaterCluster(2, 11)
	h := chem.CoreHamiltonian(fw.Basis, mol)
	d := wallDensity(fw, mol, h)
	serial := fw.BuildFock(h, d)

	for _, policy := range wallSchedPolicyCases() {
		for _, wk := range wallDiffWorkers() {
			res := wallBuild(t, policy, fw, h, d, wk, WallOptions{Seed: 13, Block: 3})
			if diff := res.F.MaxAbsDiff(serial); diff > fockDiffTol {
				t.Errorf("%s workers=%d: Fock differs from serial by %g", policy, wk, diff)
			}
		}
	}
}

// The unrestricted build path through the seam must match the serial
// spin sweep.
func TestWallSchedulerUHFBuild(t *testing.T) {
	fw := fockWorkload(t, 2)
	mol := chem.WaterCluster(2, 11)
	h := chem.CoreHamiltonian(fw.Basis, mol)
	d := wallDensity(fw, mol, h)
	dA := d.Clone()
	dA.Scale(0.55)
	dB := d.Clone()
	dB.Scale(0.45)
	dTot := dA.Clone()
	dTot.AddScaled(1, dB)
	refJ, refKA, refKB := serialSpinJK(fw, dTot, dA, dB)

	for _, policy := range []string{"semimatching", "persistence-feedback"} {
		res := wallBuildUHF(t, policy, fw, dTot, dA, dB, 3, WallOptions{Seed: 13})
		if diff := res.J.MaxAbsDiff(refJ); diff > fockDiffTol {
			t.Errorf("%s: J differs by %g", policy, diff)
		}
		if diff := res.KA.MaxAbsDiff(refKA); diff > fockDiffTol {
			t.Errorf("%s: Kα differs by %g", policy, diff)
		}
		if diff := res.KB.MaxAbsDiff(refKB); diff > fockDiffTol {
			t.Errorf("%s: Kβ differs by %g", policy, diff)
		}
	}
}

// ---------------------------------------------------------------------
// Feedback loop on the wall backend

// After one build the feedback scheduler must hold measured wall history
// for every task, and its exported profile must carry positive wall
// seconds; estimate-only policies export nothing.
func TestWallSchedulerFeedbackObserves(t *testing.T) {
	fw := fockWorkload(t, 2)
	mol := chem.WaterCluster(2, 11)
	h := chem.CoreHamiltonian(fw.Basis, mol)
	d := wallDensity(fw, mol, h)

	ws, err := NewWallScheduler("persistence-feedback", 3, WallOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if p := ws.CostProfile(); p == nil || len(p.Tasks) != 0 {
		t.Fatalf("fresh feedback profile = %+v, want empty non-nil", p)
	}
	for it := 0; it < 2; it++ {
		if _, err := ws.Build(fw, h, d); err != nil {
			t.Fatal(err)
		}
	}
	prof := ws.CostProfile()
	if prof == nil || prof.Unit != "wall_seconds" {
		t.Fatalf("profile = %+v, want unit wall_seconds", prof)
	}
	if len(prof.Tasks) != len(fw.Tasks) {
		t.Fatalf("profile has %d tasks, want %d", len(prof.Tasks), len(fw.Tasks))
	}
	for _, tc := range prof.Tasks {
		if tc.Measured <= 0 || tc.Est <= 0 {
			t.Fatalf("non-positive cost in profile: %+v", tc)
		}
	}

	est, err := NewWallScheduler("lpt", 3, WallOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if p := est.CostProfile(); p != nil {
		t.Errorf("estimate-only policy exported a cost profile: %+v", p)
	}
}

// ---------------------------------------------------------------------
// SCF through the seam builders

func TestWallSchedulerSCFEnergy(t *testing.T) {
	mol := chem.Water()
	bs, err := chem.NewBasis("sto-3g", mol)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := chem.RunSCF(mol, bs, chem.SCFOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, policy := range []string{"semimatching", "hypergraph", "persistence-feedback"} {
		builder, err := SchedulerFockBuilder(policy, 3, WallOptions{Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		res, err := chem.RunSCF(mol, bs, chem.SCFOptions{}, builder)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged {
			t.Errorf("%s: SCF did not converge", policy)
			continue
		}
		if diff := res.Energy - ref.Energy; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("%s: energy %v differs from serial %v", policy, res.Energy, ref.Energy)
		}
	}
}

func TestWallSchedulerUHFSCFEnergy(t *testing.T) {
	mol := chem.Water()
	mol.Charge = 1
	bs, err := chem.NewBasis("sto-3g", mol)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := chem.RunUHF(mol, bs, chem.UHFOptions{})
	if err != nil {
		t.Fatal(err)
	}
	builder, err := SchedulerUHFFockBuilder("persistence-feedback", 3, WallOptions{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := chem.RunUHF(mol, bs, chem.UHFOptions{Builder: builder})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("UHF through the feedback builder did not converge")
	}
	if diff := res.Energy - ref.Energy; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("energy %v differs from serial %v", res.Energy, ref.Energy)
	}
}
