// Package core implements the execution models under study — static block
// and block-cyclic scheduling, centralized dynamic scheduling over a
// shared counter, distributed work stealing, persistence-based
// rebalancing, semi-matching-based assignment, and hypergraph-partitioned
// assignment — together with the simulated-time executor that measures
// them on a cluster.Machine and wall-clock executors that run the real
// chemistry kernel on goroutines.
package core

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"execmodels/internal/chem"
)

// Task is one schedulable work unit.
type Task struct {
	ID      int
	Cost    float64 // true cost in work units (flops)
	EstCost float64 // cost estimate visible to schedulers
	Blocks  []int   // data blocks the task reads/updates (locality)
}

// Workload is a set of independent tasks plus the data-block geometry
// used for communication modelling.
type Workload struct {
	Name       string
	Tasks      []Task
	NumBlocks  int   // total distinct data blocks
	BlockBytes []int // size of each block in bytes (len NumBlocks)
}

// TotalCost returns the sum of true task costs.
func (w *Workload) TotalCost() float64 {
	var s float64
	for _, t := range w.Tasks {
		s += t.Cost
	}
	return s
}

// FromFock converts a screened Fock-build decomposition into a scheduling
// workload. Task cost is the ERI flop estimate; data blocks are the shell
// row-blocks of the density/Fock matrices that the task's bra pairs touch,
// with block size = (shell functions)×NBF×8 bytes.
func FromFock(fw *chem.FockWorkload) *Workload {
	bs := fw.Basis
	w := &Workload{
		Name:      fmt.Sprintf("fock-%s-n%d", bs.Name, bs.NBF),
		NumBlocks: len(bs.Shells),
	}
	w.BlockBytes = make([]int, len(bs.Shells))
	for i := range bs.Shells {
		w.BlockBytes[i] = bs.Shells[i].NumFuncs() * bs.NBF * 8
	}
	for _, ft := range fw.Tasks {
		blocks := map[int]bool{}
		for _, p := range ft.BraPairs {
			blocks[p.I] = true
			blocks[p.J] = true
		}
		t := Task{ID: ft.ID, Cost: ft.EstFlops, EstCost: ft.EstFlops}
		for b := range blocks {
			t.Blocks = append(t.Blocks, b)
		}
		sort.Ints(t.Blocks)
		w.Tasks = append(w.Tasks, t)
	}
	return w
}

// SyntheticOptions configures a synthetic workload generator.
type SyntheticOptions struct {
	NumTasks  int
	NumBlocks int     // 0 → NumTasks/4 + 1
	Dist      string  // "uniform", "lognormal", "bimodal", "triangular"
	Sigma     float64 // lognormal shape (default 1.5)
	MeanCost  float64 // mean task cost in work units (default 1e6)
	EstNoise  float64 // relative error between EstCost and Cost (default 0)
	Seed      int64
}

// Synthetic generates a workload with a controlled cost distribution —
// the ablation tool for separating "irregular costs" from everything
// else. The "triangular" distribution mimics the growing-ket-loop shape
// of the Fock build; "uniform" is the null hypothesis that kills the
// differences between execution models.
func Synthetic(opts SyntheticOptions) *Workload {
	if opts.NumTasks <= 0 {
		panic("core: Synthetic needs NumTasks > 0")
	}
	if opts.MeanCost == 0 {
		opts.MeanCost = 1e6
	}
	if opts.Sigma == 0 {
		opts.Sigma = 1.5
	}
	if opts.NumBlocks == 0 {
		opts.NumBlocks = opts.NumTasks/4 + 1
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	w := &Workload{
		Name:      fmt.Sprintf("synthetic-%s-%d", opts.Dist, opts.NumTasks),
		NumBlocks: opts.NumBlocks,
	}
	w.BlockBytes = make([]int, opts.NumBlocks)
	for i := range w.BlockBytes {
		w.BlockBytes[i] = 64 * 1024
	}
	for i := 0; i < opts.NumTasks; i++ {
		var c float64
		switch opts.Dist {
		case "uniform", "":
			c = opts.MeanCost
		case "lognormal":
			c = opts.MeanCost * math.Exp(rng.NormFloat64()*opts.Sigma) /
				math.Exp(opts.Sigma*opts.Sigma/2)
		case "bimodal":
			c = opts.MeanCost / 2
			if rng.Float64() < 0.1 {
				c = opts.MeanCost * 5.5
			}
		case "triangular":
			// Cost grows linearly with index, like the ket loop of the
			// Fock build over sorted pairs.
			c = opts.MeanCost * 2 * float64(i+1) / float64(opts.NumTasks+1)
		default:
			panic(fmt.Sprintf("core: unknown distribution %q", opts.Dist))
		}
		est := c
		if opts.EstNoise > 0 {
			est = c * (1 + opts.EstNoise*(2*rng.Float64()-1))
		}
		// A task touches 1-3 distinct blocks — capped by how many exist,
		// or the drawing loop below could never terminate.
		nb := min(1+rng.Intn(3), opts.NumBlocks)
		blocks := make([]int, 0, nb)
		for len(blocks) < nb {
			b := rng.Intn(opts.NumBlocks)
			dup := false
			for _, x := range blocks {
				if x == b {
					dup = true
					break
				}
			}
			if !dup {
				blocks = append(blocks, b)
			}
		}
		sort.Ints(blocks)
		w.Tasks = append(w.Tasks, Task{ID: i, Cost: c, EstCost: est, Blocks: blocks})
	}
	return w
}
