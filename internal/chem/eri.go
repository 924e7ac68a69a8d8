package chem

// pairFlops is a shell pair as the task cost model (eriBlockFlops) sees
// it: its primitive pairs and, for each pair of its single-L parts
// (Shell.parts), the Cartesian component pairs times the Hermite volume
// (vol) and the Hermite order (l). Task generation makes one per pair,
// not one per quartet.
type pairFlops struct {
	prims, n int
	vol, l   [4]int
}

// newPairFlops returns the cost model's view of the shell pair (a, b).
func newPairFlops(a, b *Shell) pairFlops {
	f := pairFlops{prims: len(a.Exps) * len(b.Exps)}
	pa, na := a.parts()
	pb, nb := b.parts()
	for _, x := range pa[:na] {
		for _, y := range pb[:nb] {
			l := x.L + y.L
			f.vol[f.n], f.l[f.n] = numCart(x.L)*numCart(y.L)*(l+1)*(l+1)*(l+1), l
			f.n++
		}
	}
	return f
}

// eriBlockFlops returns a deterministic flop-count estimate for computing
// the (bra|ket) block, counted on the term-by-term McMurchie–Davidson
// loop nest of the ERIBlock test oracle (oracle_test.go). It is the task
// cost model used by the scheduling study: the dominant term is
// (primitive quartets) × (Hermite summation volume) × (Cartesian
// component products). A quartet of merged sp shells is charged the sum
// over its single-L part quartets.
//
// It counts every primitive quartet, including those ERIBlockPairInto
// skips by their Cauchy–Schwarz bound, so it overestimates a block by
// as much as its share of skipped primitive quartets, which varies from
// quartet to quartet and grows with the system.
func eriBlockFlops(bra, ket *pairFlops) float64 {
	var sum float64
	for i := range bra.n {
		for j := range ket.n {
			// ~8 flops per innermost Hermite term, plus R-tensor
			// construction (~ltot^4) and E-table construction per
			// primitive quartet.
			ltot := float64(bra.l[i] + ket.l[j] + 1)
			sum += float64(bra.vol[i]*ket.vol[j])*8 + ltot*ltot*ltot*ltot*4 + 60
		}
	}
	return float64(bra.prims*ket.prims) * sum
}
