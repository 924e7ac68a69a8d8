package cluster

import (
	"strings"
	"testing"
)

func sampleTrace() *Trace {
	tr := &Trace{}
	tr.Record(Interval{Rank: 0, Start: 0, End: 4, TaskID: 1, Activity: "task"})
	tr.Record(Interval{Rank: 0, Start: 4, End: 5, TaskID: -1, Activity: "comm"})
	tr.Record(Interval{Rank: 1, Start: 0, End: 1, TaskID: -1, Activity: "steal"})
	tr.Record(Interval{Rank: 1, Start: 1, End: 5, TaskID: 2, Activity: "task"})
	tr.Record(Interval{Rank: 1, Start: 5, End: 5.5, TaskID: -1, Activity: "counter"})
	return tr
}

func TestSpanAndBusy(t *testing.T) {
	tr := sampleTrace()
	s, e := tr.Span()
	if s != 0 || e != 5.5 {
		t.Fatalf("span %v..%v", s, e)
	}
	var nilTrace *Trace
	if s, e := nilTrace.Span(); s != 0 || e != 0 {
		t.Fatal("nil span")
	}
}

func TestGanttGlyphs(t *testing.T) {
	g := sampleTrace().Gantt(2, 44)
	lines := strings.Split(strings.TrimRight(g, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("%d lines:\n%s", len(lines), g)
	}
	for _, glyph := range []string{"#", "~", "s", "c"} {
		if !strings.Contains(g, glyph) {
			t.Errorf("missing glyph %q:\n%s", glyph, g)
		}
	}
	// Rank 1 idles after 5.5? No — trace ends at 5.5; rank 0 idles from
	// 5.0 to 5.5, so '.' must appear in row 0.
	if !strings.Contains(lines[0], ".") {
		t.Errorf("no idle glyph in row 0: %s", lines[0])
	}
}

func TestGanttWidthDefault(t *testing.T) {
	g := sampleTrace().Gantt(2, 0)
	if !strings.Contains(g, "rank   0 |") {
		t.Fatal("default width render failed")
	}
}

func TestGanttUnknownActivity(t *testing.T) {
	tr := &Trace{}
	tr.Record(Interval{Rank: 0, Start: 0, End: 1, Activity: "mystery"})
	if g := tr.Gantt(1, 10); !strings.Contains(g, "?") {
		t.Fatalf("unknown activity not rendered as '?':\n%s", g)
	}
}
