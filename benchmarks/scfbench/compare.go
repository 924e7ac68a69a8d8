package main

import (
	"fmt"
	"io"
)

// Verdicts of one compared pair.
const (
	verdictWithin     = "within bound"
	verdictBetter     = "better"
	verdictWorse      = "OUT OF BOUND"
	verdictUnresolved = "unresolved"
)

// comparePair judges metric b against a under the manifest's rule: worse
// by more than the bound is out of bound; where either side's own range
// for its median (min–max for a handful of repeats) is wider than the
// bound the pair is unresolved, not unchanged, unless the ranges are
// disjoint.
func comparePair(a, b metric, mm manifestMetric) (rel float64, verdict string) {
	sign := 1.0 // positive rel: b is worse
	if mm.Better == "higher" {
		sign = -1
	}
	rel = sign * (b.Value - a.Value) / a.Value
	disjointWorse := (sign > 0 && b.Lo > a.Hi) || (sign < 0 && b.Hi < a.Lo)
	disjointBetter := (sign > 0 && b.Hi < a.Lo) || (sign < 0 && b.Lo > a.Hi)
	spread := max((a.Hi-a.Lo)/a.Value, (b.Hi-b.Lo)/b.Value)
	switch {
	case rel > mm.Bound && (spread <= mm.Bound || disjointWorse):
		return rel, verdictWorse
	case spread > mm.Bound && !disjointBetter:
		return rel, verdictUnresolved
	case rel < -mm.Bound:
		return rel, verdictBetter
	}
	return rel, verdictWithin
}

// compareFiles reports, per workload and end-to-end metric, both
// medians, their relative difference and the bound, and returns 1 if
// any pair is out of bound.
func compareFiles(stdout, stderr io.Writer, pathA, pathB string) int {
	man, err := readManifest(manifestPath)
	if err != nil {
		fmt.Fprintf(stderr, "scfbench: %v\n", err)
		return 2
	}
	a, err := readResultSet(pathA)
	if err != nil {
		fmt.Fprintf(stderr, "scfbench: %v\n", err)
		return 2
	}
	b, err := readResultSet(pathB)
	if err != nil {
		fmt.Fprintf(stderr, "scfbench: %v\n", err)
		return 2
	}
	if a.Env != b.Env {
		fmt.Fprintf(stdout, "warning: the two sets come from different environments:\n  A %+v\n  B %+v\n", a.Env, b.Env)
	}
	fmt.Fprintf(stdout, "%-20s %-16s %12s %12s %8s %7s  %s\n", "workload", "metric", "A median", "B median", "B worse", "bound", "verdict")
	status := 0
	for i := range a.Results {
		ra := &a.Results[i]
		var rb *workloadResult
		for j := range b.Results {
			if b.Results[j].Workload == ra.Workload && b.Results[j].Traced == ra.Traced {
				rb = &b.Results[j]
			}
		}
		if rb == nil || ra.Traced {
			continue
		}
		for _, mm := range man.EndToEnd {
			ma, okA := ra.get(mm.Name)
			mb, okB := rb.get(mm.Name)
			if !okA || !okB {
				fmt.Fprintf(stdout, "%-20s %-16s missing from one set\n", ra.Workload, mm.Name)
				status = 1
				continue
			}
			rel, verdict := comparePair(ma, mb, mm)
			if verdict == verdictWorse {
				status = 1
			}
			fmt.Fprintf(stdout, "%-20s %-16s %12.6g %12.6g %+7.1f%% %6.0f%%  %s\n",
				ra.Workload, mm.Name, ma.Value, mb.Value, 100*rel, 100*mm.Bound, verdict)
		}
		if ra.failedShare() != rb.failedShare() {
			fmt.Fprintf(stdout, "%-20s %-16s %12.6g %12.6g\n", ra.Workload, "failed_share", ra.failedShare(), rb.failedShare())
		}
		if rb.failedShare() > ra.failedShare() {
			status = 1
		}
	}
	return status
}
