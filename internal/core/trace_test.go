package core

import (
	"strings"
	"testing"

	"execmodels/internal/cluster"
)

func TestTraceCapturesStaticRun(t *testing.T) {
	w := Synthetic(SyntheticOptions{NumTasks: 40, Dist: "triangular", Seed: 1})
	m := testMachine(4)
	m.Trace = &cluster.Trace{}
	res := RunScheduler(StaticBlockSched{}, w, m)

	// One task interval per task.
	var tasks int
	busy := make([]float64, 4)
	for _, iv := range m.Trace.Intervals {
		if iv.Activity == "task" {
			tasks++
			busy[iv.Rank] += iv.End - iv.Start
			if iv.End <= iv.Start {
				t.Fatalf("empty interval %+v", iv)
			}
			if iv.Rank < 0 || iv.Rank >= 4 {
				t.Fatalf("bad rank %+v", iv)
			}
		}
	}
	if tasks != len(w.Tasks) {
		t.Fatalf("trace has %d task intervals, want %d", tasks, len(w.Tasks))
	}
	// Trace busy time must agree with the result's accounting.
	for r := range busy {
		if diff := busy[r] - res.BusyTime[r]; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("rank %d trace busy %v != result %v", r, busy[r], res.BusyTime[r])
		}
	}
}

func TestTraceCapturesStealsAndCounter(t *testing.T) {
	w := Synthetic(SyntheticOptions{NumTasks: 200, Dist: "triangular", Seed: 2})

	m := testMachine(8)
	m.Trace = &cluster.Trace{}
	RunScheduler(StealingSched{Seed: 3}, w, m)
	if activityTime(m.Trace, "steal") <= 0 {
		t.Error("no steal activity traced")
	}

	m2 := testMachine(8)
	m2.Trace = &cluster.Trace{}
	RunScheduler(CounterSched{Chunk: 1}, w, m2)
	if activityTime(m2.Trace, "counter") <= 0 {
		t.Error("no counter activity traced")
	}
}

// activityTime sums the traced duration of one activity kind.
func activityTime(tr *cluster.Trace, activity string) float64 {
	var sum float64
	for _, iv := range tr.Intervals {
		if iv.Activity == activity {
			sum += iv.End - iv.Start
		}
	}
	return sum
}

func TestGanttRendering(t *testing.T) {
	w := Synthetic(SyntheticOptions{NumTasks: 64, Dist: "triangular", Seed: 4})
	m := testMachine(4)
	m.Trace = &cluster.Trace{}
	RunScheduler(StealingSched{Seed: 1}, w, m)
	g := m.Trace.Gantt(4, 60)
	lines := strings.Split(strings.TrimRight(g, "\n"), "\n")
	if len(lines) != 5 { // 4 ranks + legend
		t.Fatalf("gantt has %d lines:\n%s", len(lines), g)
	}
	if !strings.Contains(g, "#") {
		t.Fatalf("no task glyphs in gantt:\n%s", g)
	}
	if !strings.Contains(lines[0], "rank   0") {
		t.Fatalf("missing rank label: %q", lines[0])
	}
}

func TestGanttEmptyTrace(t *testing.T) {
	var tr cluster.Trace
	if g := tr.Gantt(2, 40); g != "" {
		t.Fatalf("expected empty render, got %q", g)
	}
}

func TestTraceSpan(t *testing.T) {
	tr := &cluster.Trace{}
	tr.Record(cluster.Interval{Start: 1, End: 3})
	tr.Record(cluster.Interval{Start: 0.5, End: 2})
	s, e := tr.Span()
	if s != 0.5 || e != 3 {
		t.Fatalf("span = %v..%v", s, e)
	}
}

// Tracing must not change measured results.
func TestTraceDoesNotPerturbResults(t *testing.T) {
	w := Synthetic(SyntheticOptions{NumTasks: 128, Dist: "lognormal", Seed: 5})
	m1 := testMachine(8)
	plain := RunScheduler(StealingSched{Seed: 9}, w, m1)
	m2 := testMachine(8)
	m2.Trace = &cluster.Trace{}
	traced := RunScheduler(StealingSched{Seed: 9}, w, m2)
	if plain.Makespan != traced.Makespan {
		t.Fatalf("tracing changed makespan: %v vs %v", plain.Makespan, traced.Makespan)
	}
}
