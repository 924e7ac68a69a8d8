package chem

import "math"

// ShellPair identifies an ordered pair of shells (I <= J) together with
// its Schwarz bound. SchwarzBounds also attaches the pair's Hermite
// tables, so that BuildFockWorkloadFromPairs need not compute them again.
type ShellPair struct {
	I, J   int
	Bound  float64 // sqrt(max |(ij|ij)|), the Cauchy–Schwarz factor
	Extent float64 // spatial extent heuristic (bohr), used for locality

	pd *PairData // the pair's Hermite tables and primitive factors
}

// SchwarzBounds computes, for every shell pair, the Cauchy–Schwarz
// screening factor Q_ij = sqrt(max over components |(ij|ij)|). A quartet
// (ij|kl) is bounded by Q_ij * Q_kl and can be skipped when that product
// falls below the screening threshold. Each pair carries the PairData
// the factor was computed from, primitive factors included; every
// integral here is exact.
func SchwarzBounds(bs *BasisSet) []ShellPair {
	n := len(bs.Shells)
	pairs := make([]ShellPair, 0, n*(n+1)/2)
	s := NewERIScratch(bs)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			a, b := &bs.Shells[i], &bs.Shells[j]
			pd, bound := newPairData(a, b, s)
			ext := 1/math.Sqrt(a.MinExp()) + 1/math.Sqrt(b.MinExp()) +
				a.Center.Sub(b.Center).Norm()
			pairs = append(pairs, ShellPair{I: i, J: j, Bound: bound, Extent: ext, pd: pd})
		}
	}
	return pairs
}

// quartetSurvives reports whether the unique quartet formed by bra and
// ket clears the Schwarz bound: |(ij|kl)| <= Q_ij Q_kl, so the quartet
// is negligible when the product of pair bounds falls below threshold.
// This is the single Schwarz predicate of the Fock build — it runs at
// task-generation time (FockWorkload.blockTasks), never in the workers,
// which test only the density a listed quartet contracts.
func quartetSurvives(bra, ket *ShellPair, threshold float64) bool {
	return bra.Bound*ket.Bound >= threshold
}

// SignificantPairs filters pairs, keeping those whose bound multiplied by
// the largest bound could still exceed threshold — i.e. pairs that can
// contribute to at least one surviving quartet.
func SignificantPairs(pairs []ShellPair, threshold float64) []ShellPair {
	var qmax float64
	for _, p := range pairs {
		if p.Bound > qmax {
			qmax = p.Bound
		}
	}
	out := make([]ShellPair, 0, len(pairs))
	for _, p := range pairs {
		if p.Bound*qmax >= threshold {
			out = append(out, p)
		}
	}
	return out
}
