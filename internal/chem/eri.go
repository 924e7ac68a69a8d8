package chem

// ERIBlockFlops returns a deterministic flop-count estimate for computing
// the (ab|cd) block, counted on the term-by-term McMurchie–Davidson loop
// nest of the ERIBlock test oracle (oracle_test.go). It is the task cost model used by the scheduling
// study: the dominant term is (primitive quartets) × (Hermite summation
// volume) × (Cartesian component products).
//
// It counts every primitive quartet, including those ERIBlockPairInto
// skips by their Cauchy–Schwarz bound, so it overestimates a block by
// as much as its share of skipped primitive quartets, which varies from
// quartet to quartet and grows with the system.
func ERIBlockFlops(a, b, c, d *Shell) float64 {
	prims := float64(len(a.Exps) * len(b.Exps) * len(c.Exps) * len(d.Exps))
	comps := float64(a.NumFuncs() * b.NumFuncs() * c.NumFuncs() * d.NumFuncs())
	braVol := float64((a.L + b.L + 1) * (a.L + b.L + 1) * (a.L + b.L + 1))
	ketVol := float64((c.L + d.L + 1) * (c.L + d.L + 1) * (c.L + d.L + 1))
	ltot := float64(a.L + b.L + c.L + d.L + 1)
	// ~8 flops per innermost Hermite term, plus R-tensor construction
	// (~ltot^4) and E-table construction per primitive quartet.
	return prims * (comps*braVol*ketVol*8 + ltot*ltot*ltot*ltot*4 + 60)
}
