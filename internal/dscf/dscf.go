// Package dscf models the *whole* distributed SCF application around the
// Fock-build kernel, the way it runs in Global-Arrays codes: per
// iteration, a parallel Fock build (under a chosen execution model), a
// Fock-matrix reduction, a (replicated) diagonalization, and a density
// broadcast with a convergence allreduce. It produces per-phase simulated
// times, exposing the Amdahl behaviour that bounds what any execution
// model can deliver once the O(N³) serial diagonalization and the
// collectives start to dominate.
package dscf

import (
	"fmt"

	"execmodels/internal/cluster"
	"execmodels/internal/core"
)

// Config describes the simulated SCF application.
type Config struct {
	// NBF is the basis dimension (sets diagonalization and collective
	// payload sizes).
	NBF int
	// Iterations is the number of SCF iterations simulated (default 10).
	Iterations int
	// DiagFlopsPerN3 scales the diagonalization cost: flops = c·NBF³
	// (default 25, a Jacobi-ish constant).
	DiagFlopsPerN3 float64
	// ReplicatedDiag, when true (the default behaviour of many GA-era
	// codes), runs the diagonalization redundantly on every rank — no
	// speedup, no communication. When false, an idealized parallel
	// diagonalization with perfect speedup but per-iteration collectives
	// is used.
	ReplicatedDiag bool
}

// PhaseTimes is the per-iteration time breakdown of one simulated SCF.
type PhaseTimes struct {
	Fock      float64 // parallel Fock build (max over ranks)
	Reduce    float64 // Fock-matrix allreduce
	Diag      float64 // diagonalization
	Broadcast float64 // density broadcast + convergence check
}

// Total returns the summed phase time.
func (p PhaseTimes) Total() float64 { return p.Fock + p.Reduce + p.Diag + p.Broadcast }

// Result is the outcome of one simulated SCF application run.
type Result struct {
	Model      string
	Ranks      int
	Iterations int
	PerIter    []PhaseTimes
	TotalTime  float64
	// FockFraction is the share of total time spent in the Fock build —
	// the part execution models can influence.
	FockFraction float64
}

// Run simulates a full SCF under the given execution model on machine m.
// The same workload is rebuilt every iteration (as in an integral-direct
// code); feedback models (persistence*) exploit cost persistence across
// those iterations. model.Iterations is replaced by cfg.Iterations.
func Run(cfg Config, model core.Model, w *core.Workload, m *cluster.Machine) (*Result, error) {
	if cfg.NBF <= 0 {
		return nil, fmt.Errorf("dscf: NBF must be positive")
	}
	iters := cfg.Iterations
	if iters <= 0 {
		iters = 10
	}
	diagC := cfg.DiagFlopsPerN3
	if diagC == 0 {
		diagC = 25
	}

	res := &Result{Model: model.Name(), Ranks: m.P, Iterations: iters}

	// Fock-build makespans per iteration.
	model.Iterations = iters
	_, focks := model.RunWithHistory(w, m)

	n := cfg.NBF
	matrixBytes := n * n * 8
	diagFlops := diagC * float64(n) * float64(n) * float64(n)

	var fockTotal float64
	for i := 0; i < iters; i++ {
		var pt PhaseTimes
		pt.Fock = focks[i]
		// Partial J/K contributions live scattered across ranks: one
		// matrix-sized allreduce assembles the Fock matrix.
		pt.Reduce = m.AllReduceTime(matrixBytes)
		if cfg.ReplicatedDiag {
			// Every rank diagonalizes the full matrix at its own speed;
			// the slowest rank gates the iteration.
			slowest := m.Speed(0)
			for r := 1; r < m.P; r++ {
				if s := m.Speed(r); s < slowest {
					slowest = s
				}
			}
			pt.Diag = diagFlops / slowest
		} else {
			// Idealized parallel eigensolver plus its collectives.
			pt.Diag = diagFlops/(m.MeanSpeed()*float64(m.P)) + 2*m.AllReduceTime(matrixBytes)
		}
		// New density to everyone + scalar convergence allreduce.
		pt.Broadcast = m.AllReduceTime(matrixBytes) + m.AllReduceTime(8)

		res.PerIter = append(res.PerIter, pt)
		res.TotalTime += pt.Total()
		fockTotal += pt.Fock
	}
	if res.TotalTime > 0 {
		res.FockFraction = fockTotal / res.TotalTime
	}
	return res, nil
}

// Breakdown sums the per-iteration phases.
func (r *Result) Breakdown() PhaseTimes {
	var sum PhaseTimes
	for _, pt := range r.PerIter {
		sum.Fock += pt.Fock
		sum.Reduce += pt.Reduce
		sum.Diag += pt.Diag
		sum.Broadcast += pt.Broadcast
	}
	return sum
}
