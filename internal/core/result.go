package core

import (
	"fmt"
	"strings"

	"execmodels/internal/cluster"
	"execmodels/internal/obs"
)

// Result is the outcome of running one execution model on one workload
// and machine, entirely in simulated time except for ScheduleCost.
//
// The obs.Registry is the primary store: executors charge every simulated
// second and count every event there via the helpers below, and
// finalize() derives the exported fields from it. The fields therefore
// remain the convenient read-side view the experiments and tests consume,
// while the registry feeds the exporters and the blame analysis.
type Result struct {
	Model string
	Ranks int

	// Obs holds all metrics of the run, keyed by (metric name, rank).
	Obs *obs.Registry

	Makespan   float64   // simulated seconds until the last rank finished
	BusyTime   []float64 // per-rank simulated task-execution time
	CommTime   []float64 // per-rank simulated communication time
	FinishTime []float64 // per-rank completion time
	TasksRun   []int     // per-rank task counts

	// ScheduleCost is the *real* wall-clock time (seconds) spent computing
	// the assignment — the partitioner cost experiment (T4) compares this
	// between semi-matching and hypergraph partitioning. It is the one
	// nondeterministic quantity in a Result and deliberately never enters
	// the registry or any obs export.
	ScheduleCost float64

	// Runtime overheads, simulated.
	CounterOps   int64
	CounterWait  float64 // total counter queueing delay across ranks
	Steals       int64   // successful steals
	FailedSteals int64
	StealTime    float64 // total time spent in steal protocol
}

// newResult allocates the registry and the per-rank slice the executors
// write directly (FinishTime).
func newResult(model string, ranks int) *Result {
	return &Result{
		Model:      model,
		Ranks:      ranks,
		Obs:        obs.NewRegistry(ranks),
		FinishTime: make([]float64, ranks),
	}
}

// addBusy charges rank r dt seconds of task execution.
func (r *Result) addBusy(rank int, dt float64) {
	r.Obs.Add(obs.MBusy, rank, dt)
	r.Obs.Observe(obs.HTask, rank, dt)
}

// ranTask counts one accepted task execution on rank r.
func (r *Result) ranTask(rank int) { r.Obs.Count(obs.CTasks, rank, 1) }

// addComm charges rank r dt seconds of communication moving the given
// payload.
func (r *Result) addComm(rank int, dt float64, bytes int) {
	r.Obs.Add(obs.MComm, rank, dt)
	r.Obs.Count(obs.CCommBytes, rank, int64(bytes))
}

// addTime charges rank r dt seconds under the given *_seconds gauge.
func (r *Result) addTime(metric string, rank int, dt float64) {
	r.Obs.Add(metric, rank, dt)
}

// count adds delta to the given counter on rank r.
func (r *Result) count(name string, rank int, delta int64) {
	r.Obs.Count(name, rank, delta)
}

// finalize computes the makespan from the per-rank finish times and
// derives the legacy view fields from the registry, publishing the
// derived finish gauge back into it so exports are self-contained.
func (r *Result) finalize() {
	for _, f := range r.FinishTime {
		if f > r.Makespan {
			r.Makespan = f
		}
	}
	for rank, f := range r.FinishTime {
		r.Obs.Set(obs.MFinish, rank, f)
	}

	r.BusyTime = r.Obs.GaugeVec(obs.MBusy)
	r.CommTime = r.Obs.GaugeVec(obs.MComm)
	r.TasksRun = make([]int, r.Ranks)
	for rank, v := range r.Obs.CounterVec(obs.CTasks) {
		r.TasksRun[rank] = int(v)
	}
	r.CounterOps = r.Obs.CounterTotal(obs.CCounterOps)
	r.CounterWait = r.Obs.GaugeTotal(obs.MCounterWait)
	r.Steals = r.Obs.CounterTotal(obs.CSteals)
	r.FailedSteals = r.Obs.CounterTotal(obs.CFailedSteals)
	r.StealTime = r.Obs.GaugeTotal(obs.MSteal)
}

// Blame decomposes this run's makespan × ranks into its components using
// the registry; the trace (optional, nil-safe) adds the critical path and
// heaviest-task sections.
func (r *Result) Blame(t *cluster.Trace) *obs.Blame {
	return obs.AnalyzeBlame(r.Obs, t, r.Model, r.Ranks, r.Makespan)
}

// Summary snapshots the run for the JSON exporter.
func (r *Result) Summary(b *obs.Blame) *obs.Summary {
	return obs.NewSummary(r.Obs, b, r.Model, r.Ranks, r.Makespan)
}

// LoadImbalance returns max(busy)/mean(busy); 1.0 is perfect balance.
func (r *Result) LoadImbalance() float64 {
	var sum, mx float64
	for _, b := range r.BusyTime {
		sum += b
		if b > mx {
			mx = b
		}
	}
	if sum == 0 {
		return 0
	}
	return mx / (sum / float64(len(r.BusyTime)))
}

// Efficiency returns ideal/makespan for the given ideal (perfectly
// balanced, zero-overhead) time.
func (r *Result) Efficiency(ideal float64) float64 {
	if r.Makespan == 0 {
		return 0
	}
	return ideal / r.Makespan
}

// TotalIdle returns the summed per-rank idle time (finish of the last
// rank minus each rank's busy+comm time).
func (r *Result) TotalIdle() float64 {
	var idle float64
	for i := range r.BusyTime {
		idle += r.Makespan - r.BusyTime[i] - r.CommTime[i]
	}
	return idle
}

// String renders a one-line summary.
func (r *Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s P=%-3d makespan=%.4gs imbalance=%.3f", r.Model, r.Ranks, r.Makespan, r.LoadImbalance())
	if r.CounterOps > 0 {
		fmt.Fprintf(&b, " counterOps=%d wait=%.3gs", r.CounterOps, r.CounterWait)
	}
	if r.Steals+r.FailedSteals > 0 {
		fmt.Fprintf(&b, " steals=%d failed=%d", r.Steals, r.FailedSteals)
	}
	if r.ScheduleCost > 0 {
		fmt.Fprintf(&b, " schedCost=%.3gs", r.ScheduleCost)
	}
	return b.String()
}
