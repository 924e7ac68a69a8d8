package core

import (
	"container/heap"
	"math/rand"

	"execmodels/internal/cluster"
	"execmodels/internal/obs"
)

// StealPolicy selects what a successful steal takes from the victim.
type StealPolicy int

const (
	// StealHalf takes the older half of the victim's queue (default).
	StealHalf StealPolicy = iota
	// StealOne takes a single task.
	StealOne
)

// VictimPolicy selects how thieves pick their victims.
type VictimPolicy int

const (
	// RandomVictim picks victims uniformly at random (default; requires
	// no global information).
	RandomVictim VictimPolicy = iota
	// MostLoadedVictim picks the rank with the longest queue — an oracle
	// policy that assumes free global load information, used as an
	// ablation upper bound.
	MostLoadedVictim
)

// runStealingSim is the simulated execution engine of every PullStealing
// plan: tasks start in per-rank queues under a static block distribution;
// ranks execute locally and steal from others when they run dry. Steal
// round-trips are charged at network cost; failed attempts are charged
// too. name is the reporting model name.
func runStealingSim(name string, pull *PullPolicy, w *Workload, m *cluster.Machine) *Result {
	res := newResult(name, m.P)
	rng := rand.New(rand.NewSource(pull.Seed))
	n := len(w.Tasks)

	// Initial static block distribution of task IDs.
	queues := make([][]int, m.P)
	for i, r := range staticBlockAssign(n, m.P) {
		queues[r] = append(queues[r], i)
	}

	seen := make([]map[int]bool, m.P)
	fails := make([]int, m.P)
	for r := range seen {
		seen[r] = map[int]bool{}
	}
	remaining := n

	h := make(rankHeap, 0, m.P)
	for r := 0; r < m.P; r++ {
		heap.Push(&h, rankEvent{rank: r, time: 0})
	}
	for h.Len() > 0 {
		ev := heap.Pop(&h).(rankEvent)
		r := ev.rank

		if len(queues[r]) > 0 {
			// Execute the next local task (owner side: newest first, so
			// stolen work is the coldest — matches deque semantics).
			id := queues[r][len(queues[r])-1]
			queues[r] = queues[r][:len(queues[r])-1]
			task := &w.Tasks[id]
			t := ev.time + m.TaskTimeAt(r, task.Cost, ev.time)
			m.Trace.Record(cluster.Interval{Rank: r, Start: ev.time, End: t, TaskID: task.ID, Activity: "task"})
			res.addBusy(r, t-ev.time)
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
			remaining--
			fails[r] = 0
			heap.Push(&h, rankEvent{rank: r, time: t})
			continue
		}

		if remaining == 0 {
			res.FinishTime[r] = ev.time
			continue
		}

		// Steal attempt.
		victim := pull.pickVictim(r, queues, rng)
		cost := m.RoundTrip()
		if victim >= 0 && len(queues[victim]) > 0 {
			var loot []int
			if pull.Steal == StealOne {
				loot = []int{queues[victim][0]}
				queues[victim] = queues[victim][1:]
			} else {
				take := (len(queues[victim]) + 1) / 2
				loot = append(loot, queues[victim][:take]...)
				queues[victim] = queues[victim][take:]
			}
			// Stolen tasks arrive oldest-first at the thief's queue tail
			// is wrong — keep them so the thief pops them in victim order.
			for i, j := 0, len(loot)-1; i < j; i, j = i+1, j-1 {
				loot[i], loot[j] = loot[j], loot[i]
			}
			queues[r] = append(queues[r], loot...)
			res.count(obs.CSteals, r, 1)
			fails[r] = 0
			// Transferring task descriptors: one extra latency per steal.
			cost += m.Cfg.Latency
		} else {
			res.count(obs.CFailedSteals, r, 1)
			fails[r]++
			// Exponential backoff caps the event-count blowup while the
			// last tasks drain.
			backoff := float64(uint(1)<<min(fails[r], 10)) * m.Cfg.Latency
			cost += backoff
		}
		res.addTime(obs.MSteal, r, cost)
		m.Trace.Record(cluster.Interval{Rank: r, Start: ev.time, End: ev.time + cost, TaskID: -1, Activity: "steal"})
		heap.Push(&h, rankEvent{rank: r, time: ev.time + cost})
	}
	res.finalize()
	return res
}

// pickVictim chooses the rank thief self steals from under the plan's
// victim policy, or -1 when there is no other rank.
func (pull *PullPolicy) pickVictim(self int, queues [][]int, rng *rand.Rand) int {
	p := len(queues)
	if p == 1 {
		return -1
	}
	if pull.Victim == MostLoadedVictim {
		best, bestLen := -1, 0
		for r := 0; r < p; r++ {
			if r != self && len(queues[r]) > bestLen {
				best, bestLen = r, len(queues[r])
			}
		}
		return best
	}
	v := rng.Intn(p - 1)
	if v >= self {
		v++
	}
	return v
}
