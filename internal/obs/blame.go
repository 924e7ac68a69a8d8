package obs

import (
	"fmt"
	"strings"
)

// blameComponents lists the registry gauges that partition a rank's
// timeline, in report order. Executors charge these for pairwise-disjoint
// windows; whatever they leave uncharged is idle (starvation, barrier
// waits, backoff gaps). The blame identity
//
//	makespan × ranks = Σ_components + Σ_r idle_r
//
// holds exactly (to float rounding) because each rank's charges are
// disjoint sub-intervals of [0, makespan].
var blameComponents = []struct{ Key, Metric string }{
	{"compute", MBusy},
	{"comm", MComm},
	{"counter", MCounter},
	{"steal", MSteal},
}

// Segment is one activity class on the critical rank's timeline.
type Segment struct {
	Activity string  `json:"activity"`
	Seconds  float64 `json:"seconds"`
	Spans    int     `json:"spans"`
}

// Blame is the makespan decomposition of one run: where every one of the
// makespan × ranks rank-seconds went, which rank set the makespan and
// what that rank spent its time on, and the heaviest single task (the
// granularity floor no schedule can beat).
type Blame struct {
	Model    string  `json:"model"`
	Ranks    int     `json:"ranks"`
	Makespan float64 `json:"makespan_seconds"`

	// Components maps component name → summed rank-seconds; includes the
	// derived "idle" remainder. Total() == Makespan × Ranks.
	Components map[string]float64 `json:"components_rank_seconds"`
	// IdleByRank is each rank's uncharged remainder.
	IdleByRank []float64 `json:"idle_by_rank_seconds"`

	// CriticalRank is the rank whose finish time equals the makespan
	// (lowest rank on ties); its recorded spans form the critical path.
	CriticalRank        int       `json:"critical_rank"`
	CriticalPathSeconds float64   `json:"critical_path_seconds"`
	CriticalSegments    []Segment `json:"critical_segments,omitempty"`

	// HeaviestTask is the longest single task execution seen in the trace
	// (-1 if no trace was captured).
	HeaviestTask        int     `json:"heaviest_task"`
	HeaviestTaskSeconds float64 `json:"heaviest_task_seconds"`
}

// AnalyzeBlame decomposes makespan × ranks into the blame components
// recorded in reg, attributing each rank's uncharged remainder to idle.
// The trace is optional (nil skips the critical-path and heaviest-task
// sections); the registry is the source of truth for the decomposition,
// so blame is exact even for untraced runs.
func AnalyzeBlame(reg *Registry, trace *Trace, model string, ranks int, makespan float64) *Blame {
	b := &Blame{
		Model:        model,
		Ranks:        ranks,
		Makespan:     makespan,
		Components:   map[string]float64{},
		IdleByRank:   make([]float64, ranks),
		HeaviestTask: -1,
	}
	charged := make([]float64, ranks)
	for _, c := range blameComponents {
		vec := reg.GaugeVec(c.Metric)
		var tot float64
		for r := 0; r < ranks && r < len(vec); r++ {
			tot += vec[r]
			charged[r] += vec[r]
		}
		b.Components[c.Key] = tot
	}
	var idle float64
	for r := 0; r < ranks; r++ {
		b.IdleByRank[r] = makespan - charged[r]
		idle += b.IdleByRank[r]
	}
	b.Components["idle"] = idle

	// Critical rank: the one whose finish time set the makespan.
	finish := reg.GaugeVec(MFinish)
	b.CriticalRank = 0
	best := -1.0
	for r := 0; r < ranks && r < len(finish); r++ {
		if finish[r] > best {
			best, b.CriticalRank = finish[r], r
		}
	}

	if trace != nil {
		segs := map[string]*Segment{}
		for _, iv := range trace.Intervals {
			if iv.Activity == "task" && iv.End-iv.Start > b.HeaviestTaskSeconds {
				b.HeaviestTaskSeconds = iv.End - iv.Start
				b.HeaviestTask = iv.TaskID
			}
			if iv.Rank != b.CriticalRank {
				continue
			}
			s := segs[iv.Activity]
			if s == nil {
				s = &Segment{Activity: iv.Activity}
				segs[iv.Activity] = s
			}
			s.Seconds += iv.End - iv.Start
			s.Spans++
			if iv.End > b.CriticalPathSeconds {
				b.CriticalPathSeconds = iv.End
			}
		}
		for _, name := range sortedKeys(segs) {
			b.CriticalSegments = append(b.CriticalSegments, *segs[name])
		}
	}
	return b
}

// Total returns the summed rank-seconds over all components including
// idle; by construction it equals Makespan × Ranks up to float rounding.
// Summation follows the fixed component order: float addition does not
// associate, so summing in map order would make the low bits of the
// total depend on iteration order.
func (b *Blame) Total() float64 {
	var s float64
	for _, key := range sortedKeys(b.Components) {
		s += b.Components[key]
	}
	return s
}

// ComponentOrder returns the report order of the decomposition
// components, idle last.
func ComponentOrder() []string {
	out := make([]string, 0, len(blameComponents)+1)
	for _, c := range blameComponents {
		out = append(out, c.Key)
	}
	return append(out, "idle")
}

// Table renders the decomposition as an aligned, deterministic text
// table.
func (b *Blame) Table() string {
	var sb strings.Builder
	total := b.Makespan * float64(b.Ranks)
	fmt.Fprintf(&sb, "blame: %-18s P=%-3d makespan=%.6gs  rank-seconds=%.6g\n", b.Model, b.Ranks, b.Makespan, total)
	fmt.Fprintf(&sb, "  %-11s %14s %8s\n", "component", "rank-seconds", "share")
	for _, key := range ComponentOrder() {
		v := b.Components[key]
		share := 0.0
		if total > 0 {
			share = 100 * v / total
		}
		fmt.Fprintf(&sb, "  %-11s %14.6g %7.2f%%\n", key, v, share)
	}
	fmt.Fprintf(&sb, "  critical rank %d: path %.6gs over %d spans", b.CriticalRank, b.CriticalPathSeconds, countSpans(b.CriticalSegments))
	for _, s := range b.CriticalSegments {
		fmt.Fprintf(&sb, "  %s=%.4g", s.Activity, s.Seconds)
	}
	sb.WriteString("\n")
	if b.HeaviestTask >= 0 {
		fmt.Fprintf(&sb, "  heaviest task: id %d, %.6gs\n", b.HeaviestTask, b.HeaviestTaskSeconds)
	}
	return sb.String()
}

func countSpans(segs []Segment) int {
	n := 0
	for _, s := range segs {
		n += s.Spans
	}
	return n
}
