package core

import (
	"execmodels/internal/hypergraph"
	"execmodels/internal/semimatching"
)

// buildTaskGraph constructs the task–rank bipartite graph used by the
// semi-matching policies: each task connects to the owners of its data
// blocks plus extra deterministic pseudo-random candidate ranks (default
// 2) for connectivity. The hash sequence is shared by every caller
// (TaskGraph, SemiMatchingSched, PersistenceSched) so the same seed
// yields the same graph through any call path.
func buildTaskGraph(n, ranks, extra int, seed int64, blocksOf func(int) []int) *semimatching.Bipartite {
	if extra == 0 {
		extra = 2
	}
	b := semimatching.NewBipartite(n, ranks)
	// Deterministic pseudo-random extra edges from a cheap hash so graph
	// construction costs stay honest (no RNG state in the hot path).
	h := uint64(seed)*2654435761 + 12345
	for i := 0; i < n; i++ {
		for _, blk := range blocksOf(i) {
			b.AddEdge(i, blockOwner(blk, ranks))
		}
		for e := 0; e < extra; e++ {
			h = h*6364136223846793005 + 1442695040888963407
			b.AddEdge(i, int(h>>33)%ranks)
		}
	}
	return b
}

// TaskGraph exposes the semi-matching policies' task–rank bipartite graph
// (default extra edges) so experiments and tools can time or reuse the
// semi-matching pipeline outside a scheduler run.
func TaskGraph(w *Workload, ranks int, seed int64) *semimatching.Bipartite {
	return buildTaskGraph(len(w.Tasks), ranks, 0, seed, func(i int) []int { return w.Tasks[i].Blocks })
}

// BuildHypergraph converts a workload into the partitioning hypergraph:
// one vertex per task (weight = estimated cost), one net per data block
// (pins = tasks touching it, weight = block bytes, so the connectivity-1
// cut is exactly the replication communication volume).
func BuildHypergraph(w *Workload) *hypergraph.Hypergraph {
	return buildHypergraph(len(w.Tasks), w.NumBlocks, w.BlockBytes,
		func(i int) float64 { return w.Tasks[i].EstCost },
		func(i int) []int { return w.Tasks[i].Blocks })
}

// buildHypergraph is the shared construction behind BuildHypergraph and
// the scheduler-seam path.
func buildHypergraph(n, numBlocks int, blockBytes []int, vweight func(int) float64, blocksOf func(int) []int) *hypergraph.Hypergraph {
	h := hypergraph.New(n)
	for i := 0; i < n; i++ {
		h.VWeights[i] = vweight(i)
	}
	pins := make([][]int, numBlocks)
	for i := 0; i < n; i++ {
		for _, b := range blocksOf(i) {
			pins[b] = append(pins[b], i)
		}
	}
	for b, p := range pins {
		if len(p) >= 2 {
			h.AddNet(float64(blockBytes[b]), p...)
		}
	}
	return h
}
