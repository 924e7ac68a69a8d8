package obs

import (
	"bytes"
	"fmt"
	"math"
	"strings"
)

// Span is one contiguous span of rank activity. Task spans carry TaskID;
// message spans carry Src/Dst/Bytes; everything else leaves the extras at
// their zero values. cluster.Interval is an alias of this type, so the
// executors' existing literals keep working.
type Span struct {
	Rank     int
	Start    float64
	End      float64
	TaskID   int    // -1 for non-task activity
	Activity string // "task", "steal", "counter", "comm", "idle"
	Src      int    // message source rank (comm spans; 0 otherwise)
	Dst      int    // message destination rank (comm spans; 0 otherwise)
	Bytes    int    // payload size (comm spans; 0 otherwise)
}

// Trace records what each rank did when. It is optional: executors accept
// a nil *Trace and all methods are nil-safe.
type Trace struct {
	Intervals []Span
}

// Record appends a span; it is a no-op on a nil trace.
func (t *Trace) Record(iv Span) {
	if t == nil {
		return
	}
	t.Intervals = append(t.Intervals, iv)
}

// Reset drops all recorded spans, keeping the backing array. Iterative
// executors that rewind their per-rank clocks between iterations call it
// so the trace describes the same iteration the Result does.
func (t *Trace) Reset() {
	if t == nil {
		return
	}
	t.Intervals = t.Intervals[:0]
}

// Span returns the earliest start and latest end across all intervals.
func (t *Trace) Span() (start, end float64) {
	if t == nil || len(t.Intervals) == 0 {
		return 0, 0
	}
	start = math.Inf(1)
	for _, iv := range t.Intervals {
		start = math.Min(start, iv.Start)
		end = math.Max(end, iv.End)
	}
	return start, end
}

// Gantt renders a width-character per-rank timeline: '#' task execution,
// 's' steal protocol, 'c' counter wait, '~' communication, '.' idle.
// Later intervals overwrite earlier ones in a cell; tasks win over
// everything so short runtime ops never mask useful work.
func (t *Trace) Gantt(ranks, width int) string {
	if width < 1 {
		width = 80
	}
	start, end := t.Span()
	if end <= start {
		return ""
	}
	rows := make([][]byte, ranks)
	for r := range rows {
		rows[r] = bytes.Repeat([]byte{'.'}, width)
	}
	scale := float64(width) / (end - start)
	glyph := map[string]byte{"task": '#', "steal": 's', "counter": 'c', "comm": '~'}
	// Paint non-task activities first, then tasks on top.
	for pass := 0; pass < 2; pass++ {
		for _, iv := range t.Intervals {
			isTask := iv.Activity == "task"
			if (pass == 1) != isTask {
				continue
			}
			g, ok := glyph[iv.Activity]
			if !ok {
				g = '?'
			}
			lo := int((iv.Start - start) * scale)
			hi := int((iv.End - start) * scale)
			if hi >= width {
				hi = width - 1
			}
			for c := lo; c <= hi; c++ {
				rows[iv.Rank][c] = g
			}
		}
	}
	var b strings.Builder
	for r, row := range rows {
		fmt.Fprintf(&b, "rank %3d |%s|\n", r, row)
	}
	b.WriteString("          # task   s steal   c counter   ~ comm   . idle\n")
	return b.String()
}
