package chem

import "math"

// ERIBlock computes the block of two-electron repulsion integrals
// (ab|cd) over all Cartesian components of the four shells, in chemists'
// notation:
//
//	(ab|cd) = ∫∫ a(r1) b(r1) (1/r12) c(r2) d(r2) dr1 dr2
//
// The result is laid out as blk[((fa*nb+fb)*nc+fc)*nd+fd].
//
// The implementation follows the McMurchie–Davidson scheme: both charge
// distributions are expanded in Hermite Gaussians, and the interaction
// reduces to Hermite Coulomb integrals R_{tuv} of combined order.
func ERIBlock(a, b, c, d *Shell) []float64 {
	na, nb, nc, nd := a.NumFuncs(), b.NumFuncs(), c.NumFuncs(), d.NumFuncs()
	blk := make([]float64, na*nb*nc*nd)
	ca, cb, cc, cd := Components(a.L), Components(b.L), Components(c.L), Components(d.L)
	ab := a.Center.Sub(b.Center)
	cdv := c.Center.Sub(d.Center)
	ltot := a.L + b.L + c.L + d.L

	for pi, ea := range a.Exps {
		for pj, eb := range b.Exps {
			p := ea + eb
			P := a.Center.Scale(ea / p).Add(b.Center.Scale(eb / p))
			cab := a.Coefs[pi] * b.Coefs[pj]
			e1x := newHermiteE(a.L, b.L, ea, eb, ab.X)
			e1y := newHermiteE(a.L, b.L, ea, eb, ab.Y)
			e1z := newHermiteE(a.L, b.L, ea, eb, ab.Z)
			for pk, ec := range c.Exps {
				for pl, ed := range d.Exps {
					q := ec + ed
					Q := c.Center.Scale(ec / q).Add(d.Center.Scale(ed / q))
					ccd := c.Coefs[pk] * d.Coefs[pl]
					e2x := newHermiteE(c.L, d.L, ec, ed, cdv.X)
					e2y := newHermiteE(c.L, d.L, ec, ed, cdv.Y)
					e2z := newHermiteE(c.L, d.L, ec, ed, cdv.Z)

					alpha := p * q / (p + q)
					r := newHermiteR(ltot, alpha, P.Sub(Q))
					pref := cab * ccd * 2 * piPow25 /
						(p * q * math.Sqrt(p+q))

					idx := 0
					for _, A := range ca {
						for _, B := range cb {
							lx1, ly1, lz1 := A.Lx+B.Lx, A.Ly+B.Ly, A.Lz+B.Lz
							for _, C := range cc {
								for _, D := range cd {
									lx2, ly2, lz2 := C.Lx+D.Lx, C.Ly+D.Ly, C.Lz+D.Lz
									var sum float64
									for t := 0; t <= lx1; t++ {
										et1 := e1x.at(A.Lx, B.Lx, t)
										if et1 == 0 {
											continue
										}
										for u := 0; u <= ly1; u++ {
											eu1 := e1y.at(A.Ly, B.Ly, u)
											if eu1 == 0 {
												continue
											}
											for v := 0; v <= lz1; v++ {
												ev1 := e1z.at(A.Lz, B.Lz, v)
												if ev1 == 0 {
													continue
												}
												e1 := et1 * eu1 * ev1
												for tau := 0; tau <= lx2; tau++ {
													et2 := e2x.at(C.Lx, D.Lx, tau)
													if et2 == 0 {
														continue
													}
													for nu := 0; nu <= ly2; nu++ {
														eu2 := e2y.at(C.Ly, D.Ly, nu)
														if eu2 == 0 {
															continue
														}
														for phi := 0; phi <= lz2; phi++ {
															ev2 := e2z.at(C.Lz, D.Lz, phi)
															if ev2 == 0 {
																continue
															}
															sign := 1.0
															if (tau+nu+phi)&1 == 1 {
																sign = -1
															}
															sum += e1 * sign * et2 * eu2 * ev2 *
																r.at(t+tau, u+nu, v+phi)
														}
													}
												}
											}
										}
									}
									blk[idx] += pref * sum
									idx++
								}
							}
						}
					}
				}
			}
		}
	}
	if a.L >= 2 || b.L >= 2 || c.L >= 2 || d.L >= 2 {
		normA, normB := ComponentNorms(a.L), ComponentNorms(b.L)
		normC, normD := ComponentNorms(c.L), ComponentNorms(d.L)
		idx := 0
		for _, va := range normA {
			for _, vb := range normB {
				for _, vc := range normC {
					for _, vd := range normD {
						blk[idx] *= va * vb * vc * vd
						idx++
					}
				}
			}
		}
	}
	return blk
}

// ERIBlockFlops returns a deterministic flop-count estimate for computing
// ERIBlock(a, b, c, d). It is the task cost model used by the scheduling
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
