package chem

import (
	"math"

	"execmodels/internal/linalg"
)

// This file preserves the pre-arena ERI hot path verbatim, and hosts the
// two reference implementations the differential test harness pins the
// fast path against:
//
//   - ExecuteTaskBaseline / ExecuteTaskSpinBaseline: the pre-arena task
//     executor, still screening inside the worker loop. It is the "before"
//     point of the perf trajectory (BENCH_wall.json, the
//     BenchmarkExecuteTask* pair) and the foil proving that generation-time
//     screening (FockTask.Kets) selects exactly the quartets the in-loop
//     bound test did.
//   - BuildFockNaive / NaiveSpinJK: the symmetry-free, unscreened
//     quadruple shell loop — every ordered quartet computed independently,
//     no 8-fold folding, no Schwarz bound. It is the ground truth the
//     canonical-quartet enumeration and symmetric digest are validated
//     against (and the cmd/hfscf -nosym escape hatch).
//
// The baseline executor's per-quartet costs are the point: a fresh result
// block, fresh Hermite R tables per primitive pair, per-call Cartesian
// component tables and a π^{5/2} power in the primitive loop.

// baselinePrim is the primitive-pair record the original PairData held:
// one E table per Cartesian dimension, indexed through hermiteE.at.
type baselinePrim struct {
	p          float64 // exponent sum
	P          Vec3    // Gaussian product center
	cab        float64 // contraction coefficient product
	ex, ey, ez *hermiteE
}

// baselinePrims rebuilds those records for a shell pair. PairData now
// stores the flat expansion ERIBlockPairInto reads, so the baseline
// derives its own tables per call rather than keeping both layouts alive
// in every PairData.
func baselinePrims(pd *PairData) []baselinePrim {
	a, b := pd.A, pd.B
	ab := a.Center.Sub(b.Center)
	var prims []baselinePrim
	for pi, ea := range a.Exps {
		for pj, eb := range b.Exps {
			p := ea + eb
			prims = append(prims, baselinePrim{
				p:   p,
				P:   a.Center.Scale(ea / p).Add(b.Center.Scale(eb / p)),
				cab: a.Coefs[pi] * b.Coefs[pj],
				ex:  newHermiteE(a.L, b.L, ea, eb, ab.X),
				ey:  newHermiteE(a.L, b.L, ea, eb, ab.Y),
				ez:  newHermiteE(a.L, b.L, ea, eb, ab.Z),
			})
		}
	}
	return prims
}

// eriBlockPairBaseline is the original ERIBlockPair. The result layout
// matches ERIBlock(bra.A, bra.B, ket.A, ket.B).
func eriBlockPairBaseline(bra, ket *PairData) []float64 {
	a, b, c, d := bra.A, bra.B, ket.A, ket.B
	na, nb, nc, nd := a.NumFuncs(), b.NumFuncs(), c.NumFuncs(), d.NumFuncs()
	blk := make([]float64, na*nb*nc*nd)
	ca, cb, cc, cd := makeComponents(a.L), makeComponents(b.L), makeComponents(c.L), makeComponents(d.L)
	ltot := a.L + b.L + c.L + d.L

	ketPrims := baselinePrims(ket)
	for _, pp := range baselinePrims(bra) {
		e1x, e1y, e1z := pp.ex, pp.ey, pp.ez
		for _, qq := range ketPrims {
			e2x, e2y, e2z := qq.ex, qq.ey, qq.ez
			alpha := pp.p * qq.p / (pp.p + qq.p)
			r := newHermiteR(ltot, alpha, pp.P.Sub(qq.P))
			pref := pp.cab * qq.cab * 2 * math.Pow(math.Pi, 2.5) /
				(pp.p * qq.p * math.Sqrt(pp.p+qq.p))

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
	if a.L >= 2 || b.L >= 2 || c.L >= 2 || d.L >= 2 {
		normA, normB := makeComponentNorms(a.L), makeComponentNorms(b.L)
		normC, normD := makeComponentNorms(c.L), makeComponentNorms(d.L)
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

// ExecuteTaskSpinBaseline is the unrestricted counterpart of
// ExecuteTaskBaseline: the same pre-arena quartet loop with the Schwarz
// bound still tested inside the worker, digesting J against the total
// density and separate exchange matrices against the α/β densities. The
// differential harness pins ExecuteTaskSpinScratch bitwise against it.
func (w *FockWorkload) ExecuteTaskSpinBaseline(t *FockTask, dTot, dA, dB, j, kA, kB *linalg.Matrix) int {
	shells := w.Basis.Shells
	ks, dks := []*linalg.Matrix{kA, kB}, []*linalg.Matrix{dA, dB}
	var done int
	for bi, bra := range t.BraPairs {
		braPD := w.pairData[t.PairOffset+bi]
		for ki, ket := range w.Pairs {
			if t.PairOffset+bi < ki {
				break
			}
			if bra.Bound*ket.Bound < w.Threshold {
				continue
			}
			blk := eriBlockPairBaseline(braPD, w.pairData[ki])
			digestUniqueQuartet(j, dTot, ks, dks, shells, bra.I, bra.J, ket.I, ket.J, blk)
			done++
		}
	}
	return done
}

// BuildFockBaseline is BuildFock through ExecuteTaskBaseline: the serial
// pre-arena reference Fock matrix the differential equivalence matrix
// compares every executor × worker-count × block-size cell against.
func (w *FockWorkload) BuildFockBaseline(h, d *linalg.Matrix) *linalg.Matrix {
	n := w.Basis.NBF
	j := linalg.NewMatrix(n, n)
	k := linalg.NewMatrix(n, n)
	for i := range w.Tasks {
		w.ExecuteTaskBaseline(&w.Tasks[i], d, j, k)
	}
	f := h.Clone()
	f.AddScaled(1, j)
	f.AddScaled(-0.5, k)
	f.Symmetrize()
	return f
}

// naiveJK accumulates J and the given exchange matrices over every
// ordered shell quartet of the basis — the quadruple loop with no
// permutational symmetry and no screening. Each ordered quartet's block
// is computed independently by ERIBlock and digested once with the
// identity permutation, so the 8-fold folding never enters.
func naiveJK(bs *BasisSet, dj *linalg.Matrix, dks []*linalg.Matrix, j *linalg.Matrix, ks []*linalg.Matrix) {
	sh := bs.Shells
	for ia := range sh {
		for ib := range sh {
			for ic := range sh {
				for id := range sh {
					a, b, c, d := &sh[ia], &sh[ib], &sh[ic], &sh[id]
					blk := ERIBlock(a, b, c, d)
					nb, nc, nd := b.NumFuncs(), c.NumFuncs(), d.NumFuncs()
					digestJK(j, dj, ks, dks, a, b, c, d, func(fa, fb, fc, fd int) float64 {
						return blk[((fa*nb+fb)*nc+fc)*nd+fd]
					})
				}
			}
		}
	}
}

// BuildFockNaive computes F = H + J − K/2 by the naive quadruple shell
// loop: every ordered quartet (N⁴ of them) computed once, no symmetry
// folding, no Schwarz screening. It is the semantic ground truth for the
// symmetric screened build (equal to a threshold-0 BuildFock up to
// floating-point accumulation order) and the cmd/hfscf -nosym path. Cost
// is ~8× the symmetric build before screening even starts — small
// systems only.
func BuildFockNaive(bs *BasisSet, h, d *linalg.Matrix) *linalg.Matrix {
	n := bs.NBF
	j := linalg.NewMatrix(n, n)
	k := linalg.NewMatrix(n, n)
	naiveJK(bs, d, []*linalg.Matrix{d}, j, []*linalg.Matrix{k})
	f := h.Clone()
	f.AddScaled(1, j)
	f.AddScaled(-0.5, k)
	f.Symmetrize()
	return f
}

// NaiveSpinJK is the unrestricted naive reference: J contracted against
// the total density and per-spin exchange matrices against dA/dB, over
// every ordered quartet with no symmetry or screening.
func NaiveSpinJK(bs *BasisSet, dTot, dA, dB *linalg.Matrix) (j, kA, kB *linalg.Matrix) {
	n := bs.NBF
	j = linalg.NewMatrix(n, n)
	kA = linalg.NewMatrix(n, n)
	kB = linalg.NewMatrix(n, n)
	naiveJK(bs, dTot, []*linalg.Matrix{dA, dB}, j, []*linalg.Matrix{kA, kB})
	return j, kA, kB
}
