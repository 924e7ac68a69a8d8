// Package semimatching implements the paper's novel load-balancing
// technique: semi-matchings on bipartite task–machine graphs. A
// semi-matching assigns every task to exactly one adjacent machine; the
// optimal semi-matching minimizes the machine load vector in the
// lexicographic (equivalently, any-convex-cost) sense [Harvey, Ladner,
// Lovász, Tamir, "Semi-matchings for bipartite graphs and load balancing",
// WADS 2003].
//
// Fock-build tasks are weighted, and weighted semi-matching is NP-hard,
// so the package provides greedy LPT plus alternating move/swap
// refinement, which is the practical variant the study uses.
package semimatching

import (
	"fmt"
	"sort"
)

// Bipartite is a bipartite graph between nLeft tasks and nRight machines.
type Bipartite struct {
	NLeft, NRight int
	Adj           [][]int // Adj[task] = candidate machines
}

// NewBipartite returns an edgeless graph with the given part sizes.
func NewBipartite(nLeft, nRight int) *Bipartite {
	if nLeft < 0 || nRight <= 0 {
		panic(fmt.Sprintf("semimatching: invalid sizes %d, %d", nLeft, nRight))
	}
	return &Bipartite{NLeft: nLeft, NRight: nRight, Adj: make([][]int, nLeft)}
}

// AddEdge declares that task l may run on machine r. Duplicate edges are
// ignored.
func (b *Bipartite) AddEdge(l, r int) {
	if l < 0 || l >= b.NLeft || r < 0 || r >= b.NRight {
		panic(fmt.Sprintf("semimatching: edge (%d,%d) out of range", l, r))
	}
	for _, e := range b.Adj[l] {
		if e == r {
			return
		}
	}
	b.Adj[l] = append(b.Adj[l], r)
}

// Complete returns the complete bipartite graph (every task may run on
// every machine) — the "no locality constraint" case.
func Complete(nLeft, nRight int) *Bipartite {
	b := NewBipartite(nLeft, nRight)
	for l := 0; l < nLeft; l++ {
		b.Adj[l] = make([]int, nRight)
		for r := 0; r < nRight; r++ {
			b.Adj[l][r] = r
		}
	}
	return b
}

// Assignment maps every task to one machine.
type Assignment struct {
	Of    []int     // Of[task] = machine
	Loads []float64 // per-machine total weight
}

// Makespan returns the maximum machine load.
func (a *Assignment) Makespan() float64 {
	var mx float64
	for _, l := range a.Loads {
		if l > mx {
			mx = l
		}
	}
	return mx
}

// validate panics unless every task has at least one candidate machine.
func (b *Bipartite) validate() {
	for l, adj := range b.Adj {
		if len(adj) == 0 {
			panic(fmt.Sprintf("semimatching: task %d has no candidate machines", l))
		}
	}
}

// byDescWeight returns task indices sorted by descending weight.
func byDescWeight(w []float64) []int {
	idx := make([]int, len(w))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return w[idx[a]] > w[idx[b]] })
	return idx
}
