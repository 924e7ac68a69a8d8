package core

import (
	"container/heap"

	"execmodels/internal/cluster"
	"execmodels/internal/obs"
)

// ChunkPolicy computes how many task indices a rank claims per counter
// operation, given the number of unclaimed tasks and the rank count.
// It generalizes the dynamic counter's fixed chunk to the classical
// self-scheduling family.
type ChunkPolicy interface {
	Name() string
	NextChunk(remaining, ranks int) int
}

// FixedChunk claims a constant number of tasks per operation.
type FixedChunk int

// Name implements ChunkPolicy.
func (c FixedChunk) Name() string { return "fixed" }

// NextChunk implements ChunkPolicy.
func (c FixedChunk) NextChunk(remaining, ranks int) int {
	if c < 1 {
		return 1
	}
	return int(c)
}

// GuidedChunk implements guided self-scheduling: each claim takes
// ⌈remaining/P⌉ tasks, so chunks shrink geometrically and the tail is
// fine-grained exactly where imbalance risk concentrates.
type GuidedChunk struct{}

// Name implements ChunkPolicy.
func (GuidedChunk) Name() string { return "guided" }

// NextChunk implements ChunkPolicy.
func (GuidedChunk) NextChunk(remaining, ranks int) int {
	c := (remaining + ranks - 1) / ranks
	if c < 1 {
		c = 1
	}
	return c
}

// FactoringChunk implements factoring (Hummel/Schonberg/Flynn): work is
// claimed in batches of P equal chunks, each batch covering half of what
// remains, giving more scheduling slack than guided self-scheduling under
// high cost variance.
type FactoringChunk struct{}

// Name implements ChunkPolicy.
func (FactoringChunk) Name() string { return "factoring" }

// NextChunk implements ChunkPolicy.
func (FactoringChunk) NextChunk(remaining, ranks int) int {
	c := (remaining + 2*ranks - 1) / (2 * ranks)
	if c < 1 {
		c = 1
	}
	return c
}

// runCounterSim is the simulated execution engine of every
// counter-based (centralized dynamic) plan: ranks claim chunks of
// consecutive task indices from the shared counter agent under the
// given chunk policy and pay communication for remote blocks.
// Every CounterSched plan runs through it.
func runCounterSim(model string, w *Workload, m *cluster.Machine, policy ChunkPolicy) *Result {
	res := newResult(model, m.P)
	counter := cluster.NewCounterAgent(m)
	n := int64(len(w.Tasks))

	seen := make([]map[int]bool, m.P)
	for r := range seen {
		seen[r] = map[int]bool{}
	}

	h := make(rankHeap, 0, m.P)
	for r := 0; r < m.P; r++ {
		heap.Push(&h, rankEvent{rank: r, time: 0})
	}
	for h.Len() > 0 {
		ev := heap.Pop(&h).(rankEvent)
		r := ev.rank
		// The claim size must be computed from the pre-claim remaining
		// count; the counter itself is the source of truth.
		remaining := int(n - counter.Value())
		if remaining < 0 {
			remaining = 0
		}
		chunk := policy.NextChunk(remaining, m.P)
		old, done := counter.FetchAdd(ev.time, int64(chunk))
		m.Trace.Record(cluster.Interval{Rank: r, Start: ev.time, End: done, TaskID: -1, Activity: "counter"})
		res.addTime(obs.MCounter, r, done-ev.time)
		if old >= n {
			res.FinishTime[r] = done
			continue
		}
		t := done
		for i := old; i < old+int64(chunk) && i < n; i++ {
			task := &w.Tasks[i]
			dt := m.TaskTimeAt(r, task.Cost, t)
			m.Trace.Record(cluster.Interval{Rank: r, Start: t, End: t + dt, TaskID: task.ID, Activity: "task"})
			res.addBusy(r, dt)
			t += dt
			res.ranTask(r)
			for _, b := range task.Blocks {
				owner := blockOwner(b, m.P)
				if owner == r || seen[r][b] {
					continue
				}
				seen[r][b] = true
				ct := 2 * m.XferTime(w.BlockBytes[b])
				m.Trace.Record(cluster.Interval{Rank: r, Start: t, End: t + ct, TaskID: -1, Activity: "comm", Src: owner, Dst: r, Bytes: w.BlockBytes[b]})
				res.addComm(r, ct, w.BlockBytes[b])
				t += ct
			}
		}
		heap.Push(&h, rankEvent{rank: r, time: t})
	}
	res.count(obs.CCounterOps, 0, counter.Ops())
	res.addTime(obs.MCounterWait, 0, counter.TotalWait())
	res.finalize()
	return res
}
