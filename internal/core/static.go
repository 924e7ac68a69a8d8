package core

import (
	"execmodels/internal/cluster"
)

// blockOwner returns the rank owning data block b under the block-cyclic
// distribution used by all models.
func blockOwner(b, ranks int) int { return b % ranks }

// runAssignment simulates the execution of a fixed task→rank assignment:
// each rank executes its tasks back to back (charging per-task noise and
// overhead via the machine's cost model) and pays communication for every
// distinct remote data block its tasks touch (one get + one accumulate,
// cached per rank — co-locating tasks that share blocks therefore saves
// real time, which is what the locality-aware balancers exploit).
//
// measured, when non-nil, captures each task's simulated execution time
// by task index — the measurement side of the persistence/feedback loop.
// Each call describes one fresh iteration starting at virtual time zero,
// so callers iterating must Reset the machine trace between calls.
func runAssignment(model string, w *Workload, m *cluster.Machine, assign []int, scheduleCost WallSeconds, measured []float64) *Result {
	res := newResult(model, m.P)
	res.ScheduleCost = scheduleCost
	seen := make([]map[int]bool, m.P)
	clock := make([]float64, m.P) // per-rank time, for throttle windows
	for r := range seen {
		seen[r] = map[int]bool{}
	}
	for i, t := range w.Tasks {
		r := assign[i]
		dt := m.TaskTimeAt(r, t.Cost, clock[r])
		if measured != nil {
			measured[i] = dt
		}
		m.Trace.Record(cluster.Interval{Rank: r, Start: clock[r], End: clock[r] + dt, TaskID: t.ID, Activity: "task"})
		res.addBusy(r, dt)
		clock[r] += dt
		res.ranTask(r)
		for _, b := range t.Blocks {
			owner := blockOwner(b, m.P)
			if owner == r || seen[r][b] {
				continue
			}
			seen[r][b] = true
			ct := 2 * m.XferTime(w.BlockBytes[b])
			m.Trace.Record(cluster.Interval{Rank: r, Start: clock[r], End: clock[r] + ct, TaskID: -1, Activity: "comm", Src: owner, Dst: r, Bytes: w.BlockBytes[b]})
			res.addComm(r, ct, w.BlockBytes[b])
			clock[r] += ct
		}
	}
	for r := 0; r < m.P; r++ {
		res.FinishTime[r] = clock[r]
	}
	res.finalize()
	return res
}
