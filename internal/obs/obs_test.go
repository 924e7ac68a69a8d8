package obs

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func TestRegistryBasics(t *testing.T) {
	r := NewRegistry(4)
	if r.Ranks() != 4 {
		t.Fatalf("Ranks() = %d, want 4", r.Ranks())
	}

	r.Count(CTasks, 0, 3)
	r.Count(CTasks, 2, 1)
	r.Add(MBusy, 1, 0.5)
	r.Add(MBusy, 1, 0.25)
	r.Set(MFinish, 3, 2.0)
	r.Set(MFinish, 3, 1.5) // Set overwrites

	if got := r.CounterTotal(CTasks); got != 4 {
		t.Errorf("CounterTotal = %d, want 4", got)
	}
	if got := r.GaugeTotal(MBusy); got != 0.75 {
		t.Errorf("GaugeTotal = %g, want 0.75", got)
	}
	if vec := r.GaugeVec(MFinish); vec[3] != 1.5 {
		t.Errorf("Set did not overwrite: %v", vec)
	}

	// Out-of-range ranks and unknown names are silently absorbed.
	r.Count(CTasks, -1, 1)
	r.Count(CTasks, 99, 1)
	r.Add(MBusy, -5, 1)
	if got := r.CounterTotal(CTasks); got != 4 {
		t.Errorf("out-of-range rank leaked into totals: %d", got)
	}
	if got := r.CounterTotal("never_touched"); got != 0 {
		t.Errorf("unknown counter total = %d", got)
	}
	if names := r.CounterNames(); len(names) != 1 || names[0] != CTasks {
		t.Errorf("CounterNames = %v", names)
	}

	// Nil registry: every method is a no-op, never a panic.
	var nilReg *Registry
	nilReg.Count(CTasks, 0, 1)
	nilReg.Add(MBusy, 0, 1)
	nilReg.Set(MFinish, 0, 1)
	nilReg.Observe(HTask, 0, 1)
	if nilReg.Ranks() != 0 {
		t.Error("nil registry has ranks")
	}
	if v := nilReg.CounterVec(CTasks); len(v) != 0 {
		t.Errorf("nil CounterVec = %v", v)
	}
}

func TestHistogram(t *testing.T) {
	r := NewRegistry(2)
	r.Observe(HTask, 0, 5e-7) // second bucket (1e-7, 1e-6]
	r.Observe(HTask, 0, 0.5)  // (0.1, 1]
	r.Observe(HTask, 1, 100)  // above the last bound → +Inf bucket
	bounds, counts, sum, n := r.HistSnapshot(HTask, 0)
	if len(counts) != len(bounds)+1 {
		t.Fatalf("counts %d vs bounds %d: want one extra +Inf bucket", len(counts), len(bounds))
	}
	if n != 2 || sum != 0.5+5e-7 {
		t.Errorf("rank 0: n=%d sum=%g", n, sum)
	}
	var total uint64
	for _, c := range counts {
		total += c
	}
	if total != 2 {
		t.Errorf("bucket counts sum to %d, want 2", total)
	}
	_, counts1, _, n1 := r.HistSnapshot(HTask, 1)
	if n1 != 1 || counts1[len(counts1)-1] != 1 {
		t.Errorf("overflow observation not in +Inf bucket: n=%d counts=%v", n1, counts1)
	}
	if names := r.HistNames(); len(names) != 1 || names[0] != HTask {
		t.Errorf("HistNames = %v", names)
	}
}

func TestTraceHelpers(t *testing.T) {
	tr := goldenTrace()
	if start, end := tr.Span(); start != 0 || end != 1.0 {
		t.Errorf("Span = (%g, %g)", start, end)
	}

	tr.Reset()
	if len(tr.Intervals) != 0 {
		t.Error("Reset left spans behind")
	}

	var nilTrace *Trace
	nilTrace.Record(Span{})
	nilTrace.Reset()
	if s, e := nilTrace.Span(); s != 0 || e != 0 {
		t.Error("nil trace span")
	}
}

// blameFixture builds a registry + trace whose decomposition is exact by
// construction: rank 0 fully busy, rank 1 part busy/steal/idle.
func blameFixture() (*Registry, *Trace, float64) {
	const makespan = 1.0
	r := NewRegistry(2)
	r.Add(MBusy, 0, 1.0)
	r.Set(MFinish, 0, 1.0)
	r.Add(MBusy, 1, 0.6)
	r.Add(MSteal, 1, 0.1)
	r.Set(MFinish, 1, 0.7)

	tr := &Trace{}
	tr.Record(Span{Rank: 0, Start: 0, End: 1.0, TaskID: 7, Activity: "task"})
	tr.Record(Span{Rank: 1, Start: 0, End: 0.6, TaskID: 8, Activity: "task"})
	tr.Record(Span{Rank: 1, Start: 0.6, End: 0.7, TaskID: -1, Activity: "steal"})
	return r, tr, makespan
}

func TestAnalyzeBlame(t *testing.T) {
	r, tr, makespan := blameFixture()
	b := AnalyzeBlame(r, tr, "unit", 2, makespan)

	if got := b.Total(); math.Abs(got-makespan*2) > 1e-12 {
		t.Errorf("Total = %g, want %g", got, makespan*2)
	}
	if b.Components["compute"] != 1.6 || b.Components["steal"] != 0.1 {
		t.Errorf("components = %v", b.Components)
	}
	if math.Abs(b.Components["idle"]-0.3) > 1e-12 {
		t.Errorf("idle = %g, want 0.3", b.Components["idle"])
	}
	if b.CriticalRank != 0 || b.CriticalPathSeconds != 1.0 {
		t.Errorf("critical rank %d path %g, want rank 0 path 1.0", b.CriticalRank, b.CriticalPathSeconds)
	}
	if b.HeaviestTask != 7 || b.HeaviestTaskSeconds != 1.0 {
		t.Errorf("heaviest task %d (%gs), want 7 (1.0s)", b.HeaviestTask, b.HeaviestTaskSeconds)
	}

	tbl := b.Table()
	for _, want := range []string{"blame: unit", "compute", "idle", "critical rank 0", "heaviest task"} {
		if !strings.Contains(tbl, want) {
			t.Errorf("Table() missing %q:\n%s", want, tbl)
		}
	}
	if b.Table() != tbl {
		t.Error("Table() is not deterministic")
	}

	// Without a trace, the decomposition still works; only the
	// trace-derived sections are absent.
	nb := AnalyzeBlame(r, nil, "unit", 2, makespan)
	if math.Abs(nb.Total()-makespan*2) > 1e-12 {
		t.Errorf("nil-trace Total = %g", nb.Total())
	}
	if nb.HeaviestTask != -1 {
		t.Errorf("nil-trace heaviest task = %d, want -1", nb.HeaviestTask)
	}

	order := ComponentOrder()
	if order[0] != "compute" || order[len(order)-1] != "idle" {
		t.Errorf("ComponentOrder = %v", order)
	}
}

func TestSummaryJSON(t *testing.T) {
	r, tr, makespan := blameFixture()
	r.Count(CTasks, 0, 1)
	r.Count(CTasks, 1, 1)
	b := AnalyzeBlame(r, tr, "unit", 2, makespan)
	s := NewSummary(r, b, "unit", 2, makespan)

	var buf1, buf2 bytes.Buffer
	if err := s.WriteJSON(&buf1); err != nil {
		t.Fatal(err)
	}
	if err := NewSummary(r, b, "unit", 2, makespan).WriteJSON(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf1.Bytes(), buf2.Bytes()) {
		t.Error("summary JSON is not deterministic")
	}
	for _, want := range []string{`"model": "unit"`, `"tasks_total": 2`, `"blame"`, `"critical_rank": 0`} {
		if !strings.Contains(buf1.String(), want) {
			t.Errorf("summary JSON missing %s:\n%s", want, buf1.String())
		}
	}
}
