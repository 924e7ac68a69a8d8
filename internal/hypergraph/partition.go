package hypergraph

import (
	"fmt"
	"math"
	"math/rand"
)

// Result is the output of a partitioning run.
type Result struct {
	Part      []int   // part of each vertex
	Cut       float64 // connectivity-1 metric
	Imbalance float64 // max/avg - 1
}

// Options tunes the partitioner.
type Options struct {
	Eps       float64 // balance slack: max part weight <= (1+Eps)*avg (default 0.05)
	Seed      int64
	MaxPasses int // refinement passes per level (default 8)
}

func (o *Options) setDefaults() {
	if o.Eps == 0 {
		o.Eps = 0.05
	}
	if o.MaxPasses == 0 {
		o.MaxPasses = 8
	}
}

// Partition splits h into k parts minimizing the connectivity-1 cut under
// the balance constraint. This is deliberately a heavyweight algorithm —
// the study measures its cost against semi-matching.
func Partition(h *Hypergraph, k int, opts Options) *Result {
	opts.setDefaults()
	if k < 1 {
		panic(fmt.Sprintf("hypergraph: k = %d", k))
	}
	if k == 1 {
		part := make([]int, h.NumVertices())
		return &Result{Part: part, Cut: 0, Imbalance: 0}
	}
	rng := rand.New(rand.NewSource(opts.Seed))

	// Build the hierarchy.
	levels := []level{{h: h}}
	cur := h
	for cur.NumVertices() > max(4*k, 64) {
		coarse, vmap, ok := coarsen(cur, rng)
		if !ok {
			break
		}
		levels[len(levels)-1].map_ = vmap
		levels = append(levels, level{h: coarse})
		cur = coarse
	}

	// Initial partition on the coarsest level.
	coarsest := levels[len(levels)-1].h
	part := initialPartition(coarsest, k, rng)
	refine(coarsest, part, k, opts, rng)

	// Uncoarsen, projecting and refining at each level.
	for li := len(levels) - 2; li >= 0; li-- {
		fine := levels[li]
		finePart := make([]int, fine.h.NumVertices())
		for v := range finePart {
			finePart[v] = part[fine.map_[v]]
		}
		part = finePart
		refine(fine.h, part, k, opts, rng)
	}
	balancePass(h, part, k, opts)

	return &Result{
		Part:      part,
		Cut:       ConnectivityCut(h, part, k),
		Imbalance: Imbalance(h, part, k),
	}
}

// initialPartition assigns vertices to parts by recursive bisection with
// BFS region growing: each bisection seeds a random vertex and grows a
// connected region through the nets until it reaches its weight target.
// This is cut-aware from the start, unlike a pure weight-balancing LPT.
func initialPartition(h *Hypergraph, k int, rng *rand.Rand) []int {
	n := h.NumVertices()
	part := make([]int, n)
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	inc := h.pinsOf()
	var assign func(sub []int, firstPart, numParts int)
	assign = func(sub []int, firstPart, numParts int) {
		if len(sub) == 0 {
			return
		}
		if numParts == 1 || len(sub) == 1 {
			for _, v := range sub {
				part[v] = firstPart
			}
			return
		}
		kA := numParts / 2
		frac := float64(kA) / float64(numParts)
		a, b := bisectGrow(h, inc, sub, frac, rng)
		assign(a, firstPart, kA)
		assign(b, firstPart+kA, numParts-kA)
	}
	assign(all, 0, k)
	return part
}

// bisectGrow splits sub into a region of ~targetFrac of the weight, grown
// by BFS from a random seed, and the remainder.
func bisectGrow(h *Hypergraph, inc [][]int, sub []int, targetFrac float64, rng *rand.Rand) (a, b []int) {
	inSub := make(map[int]bool, len(sub))
	var totalW float64
	for _, v := range sub {
		inSub[v] = true
		totalW += h.VWeights[v]
	}
	target := targetFrac * totalW

	taken := make(map[int]bool, len(sub))
	var takenW float64
	queue := []int{sub[rng.Intn(len(sub))]}
	for takenW < target {
		var v int
		if len(queue) > 0 {
			v = queue[0]
			queue = queue[1:]
		} else {
			// Disconnected remainder: restart from any untaken vertex.
			v = -1
			for _, u := range sub {
				if !taken[u] {
					v = u
					break
				}
			}
			if v == -1 {
				break
			}
		}
		if taken[v] {
			continue
		}
		taken[v] = true
		takenW += h.VWeights[v]
		a = append(a, v)
		for _, ni := range inc[v] {
			for _, u := range h.Nets[ni] {
				if inSub[u] && !taken[u] {
					queue = append(queue, u)
				}
			}
		}
	}
	for _, v := range sub {
		if !taken[v] {
			b = append(b, v)
		}
	}
	// Degenerate growth (e.g. one huge vertex): make sure both sides are
	// non-empty when the input allows it.
	if len(b) == 0 && len(a) > 1 {
		b = append(b, a[len(a)-1])
		a = a[:len(a)-1]
	}
	return a, b
}

// balancePass enforces the strict balance cap on the final partition by
// moving the least-cut-damaging vertices off overweight parts. Runs after
// refinement, which is allowed a vertex-granularity slack.
func balancePass(h *Hypergraph, part []int, k int, opts Options) {
	loads := PartWeights(h, part, k)
	total := h.TotalVertexWeight()
	cap_ := (1 + opts.Eps) * total / float64(k)
	inc := h.pinsOf()

	for iter := 0; iter < h.NumVertices(); iter++ {
		src := 0
		for p := 1; p < k; p++ {
			if loads[p] > loads[src] {
				src = p
			}
		}
		if loads[src] <= cap_ {
			return
		}
		// Cheapest vertex to evict: smallest cut increase per unit weight,
		// to the lightest part.
		dst := 0
		for p := 1; p < k; p++ {
			if loads[p] < loads[dst] {
				dst = p
			}
		}
		bestV, bestCost := -1, math.Inf(1)
		for v := 0; v < h.NumVertices(); v++ {
			if part[v] != src {
				continue
			}
			wv := h.VWeights[v]
			if loads[dst]+wv > loads[src]-wv && loads[dst]+wv > cap_ {
				continue // move would not help
			}
			var cost float64
			for _, ni := range inc[v] {
				srcPins, dstPins := 0, 0
				for _, u := range h.Nets[ni] {
					switch part[u] {
					case src:
						srcPins++
					case dst:
						dstPins++
					}
				}
				if srcPins == 1 && dstPins > 0 {
					cost -= h.NetW[ni]
				} else if srcPins > 1 && dstPins == 0 {
					cost += h.NetW[ni]
				}
			}
			if cost < bestCost {
				bestCost, bestV = cost, v
			}
		}
		if bestV == -1 {
			return // nothing movable; granularity limit reached
		}
		loads[src] -= h.VWeights[bestV]
		loads[dst] += h.VWeights[bestV]
		part[bestV] = dst
	}
}

// refine runs greedy k-way FM-style passes: vertices are visited in random
// order; each is moved to the part giving the best positive cut gain that
// keeps balance, with zero-gain moves accepted when they strictly improve
// balance. Passes repeat until a full pass makes no move or MaxPasses is
// reached.
func refine(h *Hypergraph, part []int, k int, opts Options, rng *rand.Rand) {
	n := h.NumVertices()
	if n == 0 || len(h.Nets) == 0 {
		return
	}
	inc := h.pinsOf()
	// Per-net pin counts per part, stored sparsely.
	netCnt := make([]map[int]int, len(h.Nets))
	for ni, pins := range h.Nets {
		m := make(map[int]int, 4)
		for _, v := range pins {
			m[part[v]]++
		}
		netCnt[ni] = m
	}
	loads := PartWeights(h, part, k)
	total := h.TotalVertexWeight()
	// Vertex-granularity slack keeps the refiner mobile on tightly
	// balanced unit-weight inputs; balancePass restores the strict cap at
	// the end.
	var wmax float64
	for _, w := range h.VWeights {
		if w > wmax {
			wmax = w
		}
	}
	cap_ := (1+opts.Eps)*total/float64(k) + wmax

	for pass := 0; pass < opts.MaxPasses; pass++ {
		moved := 0
		for _, v := range rng.Perm(n) {
			src := part[v]
			wv := h.VWeights[v]
			// Gain of removing v from src, per net: +w if v is the sole
			// src pin and the net already spans the candidate part.
			bestGain, bestDst := 0.0, -1
			bestBalance := 0.0
			for dst := 0; dst < k; dst++ {
				if dst == src || loads[dst]+wv > cap_ {
					continue
				}
				var gain float64
				for _, ni := range inc[v] {
					cnt := netCnt[ni]
					if cnt[src] == 1 && cnt[dst] > 0 {
						gain += h.NetW[ni]
					} else if cnt[src] > 1 && cnt[dst] == 0 {
						gain -= h.NetW[ni]
					}
				}
				balGain := loads[src] - (loads[dst] + wv) // >0 if balance improves
				better := gain > bestGain+1e-12 ||
					(gain > bestGain-1e-12 && balGain > bestBalance+1e-12)
				if better && (gain > 1e-12 || balGain > 1e-12) {
					bestGain, bestDst, bestBalance = gain, dst, balGain
				}
			}
			if bestDst >= 0 {
				for _, ni := range inc[v] {
					netCnt[ni][src]--
					if netCnt[ni][src] == 0 {
						delete(netCnt[ni], src)
					}
					netCnt[ni][bestDst]++
				}
				loads[src] -= wv
				loads[bestDst] += wv
				part[v] = bestDst
				moved++
			}
		}
		if moved == 0 {
			break
		}
	}
}
