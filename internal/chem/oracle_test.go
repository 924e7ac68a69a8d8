package chem

import (
	"math"

	"execmodels/internal/linalg"
)

// This file holds the chemistry kernel's test oracles, kept beside the
// tests that pin the production path against them and out of the
// production build:
//
//   - ERIBlock, the reference ERI routine: a fresh result block and fresh
//     Hermite E and R tables (newHermiteE, newHermiteR) per primitive
//     quartet, nothing cached per shell pair, no primitive skipped. The
//     oracle of ERIBlockPairInto.
//   - digestUniqueQuartet, one closure-driven digestJK pass per distinct
//     permutation of the quartet (quartetPermutations). The oracle of
//     the one-pass digestQuartet.
//   - ExecuteTaskBaseline / ExecuteTaskSpinBaseline / BuildFockBaseline,
//     the pre-arena executor over both, still screening inside the
//     worker loop. The foil proving that generation-time screening
//     (FockTask.Kets) selects exactly the quartets the in-loop bound test
//     did, the exact reference Fock matrix of TestBuildFockMatchesBaseline,
//     and the "before" side of the BenchmarkExecuteTask* pair.
//
// The symmetry-free naive quadruple loop lives beside the tests that
// compare against it (symmetry_test.go).

// ERIBlock computes the block of two-electron repulsion integrals
// (ab|cd) over all Cartesian components of the four shells, in chemists'
// notation:
//
//	(ab|cd) = ∫∫ a(r1) b(r1) (1/r12) c(r2) d(r2) dr1 dr2
//
// The result is laid out as blk[((fa*nb+fb)*nc+fc)*nd+fd].
//
// A merged sp shell is taken apart (Shell.parts): each quartet of
// single-L parts is evaluated on its own by eriPartBlock and written to
// its functions' place in the block.
func ERIBlock(a, b, c, d *Shell) []float64 {
	na, nb, nc, nd := a.NumFuncs(), b.NumFuncs(), c.NumFuncs(), d.NumFuncs()
	blk := make([]float64, na*nb*nc*nd)
	pa, npa := a.parts()
	pb, npb := b.parts()
	pc, npc := c.parts()
	pd, npd := d.parts()
	for _, ra := range pa[:npa] {
		for _, rb := range pb[:npb] {
			for _, rc := range pc[:npc] {
				for _, rd := range pd[:npd] {
					sa, sb, sc, sd := a.part(ra), b.part(rb), c.part(rc), d.part(rd)
					sub := eriPartBlock(&sa, &sb, &sc, &sd)
					idx := 0
					for fa := range sa.NumFuncs() {
						for fb := range sb.NumFuncs() {
							for fc := range sc.NumFuncs() {
								for fd := range sd.NumFuncs() {
									blk[(((ra.Off+fa)*nb+rb.Off+fb)*nc+rc.Off+fc)*nd+rd.Off+fd] = sub[idx]
									idx++
								}
							}
						}
					}
				}
			}
		}
	}
	return blk
}

// eriPartBlock is ERIBlock on four single-L shells. The implementation
// follows the McMurchie–Davidson scheme: both charge distributions are
// expanded in Hermite Gaussians, and the interaction reduces to Hermite
// Coulomb integrals R_{tuv} of combined order.
func eriPartBlock(a, b, c, d *Shell) []float64 {
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

// newHermiteE builds the E table for exponents a, b and center separation
// ab = A - B along one dimension, for angular momenta up to imax, jmax.
func newHermiteE(imax, jmax int, a, b, ab float64) *hermiteE {
	e := makeHermiteE(imax, jmax)
	e.fill(a, b, ab)
	return e
}

// newHermiteR computes R^0_{tuv} for all t+u+v <= tmax, with Gaussian
// exponent p and separation pc = P - C. A fresh workspace per call: the
// result owns its data. Hot paths use hermiteRWork.compute directly to
// amortize the allocations away.
func newHermiteR(tmax int, p float64, pc Vec3) *hermiteR {
	var w hermiteRWork
	return &hermiteR{w.compute(tmax, p, pc, 1)}
}

// eriGetter returns the integral (ab|cd) for function offsets within a
// permuted view of a shell-quartet block.
type eriGetter func(fa, fb, fc, fd int) float64

// digestJK scatters one ordered shell-quartet block into the Coulomb (J)
// and exchange (K) accumulators:
//
//	J[μν] += DJ[λσ]·(μν|λσ)      K_i[μλ] += DK_i[νσ]·(μν|λσ)
//
// with μ∈a, ν∈b, λ∈c, σ∈d. The Coulomb and exchange terms may contract
// different densities (RHF uses the same one; UHF contracts the total
// density for J and the per-spin densities for the two Ks). Callers are
// responsible for enumerating every distinct shell-index permutation of a
// unique quartet exactly once, which together reproduces the full
// unrestricted contraction.
func digestJK(j *linalg.Matrix, dj *linalg.Matrix, ks, dks []*linalg.Matrix, a, b, c, dd *Shell, get eriGetter) {
	na, nb, nc, nd := a.NumFuncs(), b.NumFuncs(), c.NumFuncs(), dd.NumFuncs()
	kAcc := make([]float64, len(ks))
	for fa := 0; fa < na; fa++ {
		mu := a.Start + fa
		for fb := 0; fb < nb; fb++ {
			nu := b.Start + fb
			var jAcc float64
			for fc := 0; fc < nc; fc++ {
				lam := c.Start + fc
				for i := range kAcc {
					kAcc[i] = 0
				}
				for fd := 0; fd < nd; fd++ {
					sig := dd.Start + fd
					v := get(fa, fb, fc, fd)
					jAcc += dj.At(lam, sig) * v
					for i, dk := range dks {
						kAcc[i] += dk.At(nu, sig) * v
					}
				}
				for i, k := range ks {
					k.Add(mu, lam, kAcc[i])
				}
			}
			j.Add(mu, nu, jAcc)
		}
	}
}

// quartetPermutations enumerates the distinct shell-index permutations of
// the unique quartet (a,b,c,d) under the 8-fold integral symmetry
// (ab|cd) = (ba|cd) = (ab|dc) = (ba|dc) = (cd|ab) = (dc|ab) = (cd|ba) = (dc|ba).
// Each permutation is returned as the four original-block roles for the
// (bra1, bra2, ket1, ket2) positions: e.g. [1 0 2 3] means the permuted
// view is (ba|cd) and its (fa,fb,fc,fd) element reads the original block
// at (fb,fa,fc,fd).
func quartetPermutations(a, b, c, d int) [][4]int {
	all := [][4]int{
		{0, 1, 2, 3}, {1, 0, 2, 3}, {0, 1, 3, 2}, {1, 0, 3, 2},
		{2, 3, 0, 1}, {3, 2, 0, 1}, {2, 3, 1, 0}, {3, 2, 1, 0},
	}
	ids := [4]int{a, b, c, d}
	seen := make(map[[4]int]bool, 8)
	var out [][4]int
	for _, p := range all {
		key := [4]int{ids[p[0]], ids[p[1]], ids[p[2]], ids[p[3]]}
		if !seen[key] {
			seen[key] = true
			out = append(out, p)
		}
	}
	return out
}

// digestUniqueQuartet digests the precomputed ERI block of the unique
// quartet, scattering every distinct permutation into J and the K
// accumulators. shells is the full shell list; ia..id index into it; blk
// is laid out as ERIBlock(ia, ib, ic, id).
//
// This closure-based form, one pass per permutation, allocates per call;
// it survives as ExecuteTaskBaseline's path and as the oracle of the hot
// path's one-pass digestQuartet.
func digestUniqueQuartet(j, dj *linalg.Matrix, ks, dks []*linalg.Matrix, shells []Shell, ia, ib, ic, id int, blk []float64) {
	sh := [4]*Shell{&shells[ia], &shells[ib], &shells[ic], &shells[id]}
	nb, nc, nd := sh[1].NumFuncs(), sh[2].NumFuncs(), sh[3].NumFuncs()
	orig := func(fa, fb, fc, fd int) float64 {
		return blk[((fa*nb+fb)*nc+fc)*nd+fd]
	}
	for _, p := range quartetPermutations(ia, ib, ic, id) {
		p := p
		get := func(fa, fb, fc, fd int) float64 {
			f := [4]int{fa, fb, fc, fd}
			// Position i of the permuted view holds original role p[i]; to
			// read the original block we place each permuted index back
			// into its original role.
			var g [4]int
			g[p[0]], g[p[1]], g[p[2]], g[p[3]] = f[0], f[1], f[2], f[3]
			return orig(g[0], g[1], g[2], g[3])
		}
		digestJK(j, dj, ks, dks, sh[p[0]], sh[p[1]], sh[p[2]], sh[p[3]], get)
	}
}

// ExecuteTaskBaseline is the pre-arena reference implementation of
// ExecuteTaskScratch, retained as the "before" side of the
// BenchmarkExecuteTask* pair and as the allocation-behavior foil in
// tests: it allocates the ERI block, the Hermite workspaces and the
// digest closures per quartet. Its results must match ExecuteTaskScratch
// exactly up to floating-point accumulation order.
func (w *FockWorkload) ExecuteTaskBaseline(t *FockTask, d, j, k *linalg.Matrix) int {
	return w.executeTaskBaseline(t, d, []*linalg.Matrix{k}, []*linalg.Matrix{d}, j)
}

// ExecuteTaskSpinBaseline is the unrestricted counterpart of
// ExecuteTaskBaseline: J digests the total density and separate exchange
// matrices the α/β densities. TestExecuteTaskSpinBaselineMatchesScratch
// pins ExecuteTaskSpinScratch against it.
func (w *FockWorkload) ExecuteTaskSpinBaseline(t *FockTask, dTot, dA, dB, j, kA, kB *linalg.Matrix) int {
	return w.executeTaskBaseline(t, dTot, []*linalg.Matrix{kA, kB}, []*linalg.Matrix{dA, dB}, j)
}

// executeTaskBaseline is the pre-arena quartet loop, with the Schwarz
// bound still tested inside the worker.
func (w *FockWorkload) executeTaskBaseline(t *FockTask, dj *linalg.Matrix, ks, dks []*linalg.Matrix, j *linalg.Matrix) int {
	shells := w.Basis.Shells
	var done int
	for bi, bra := range t.BraPairs {
		for ki, ket := range w.Pairs {
			if t.PairOffset+bi < ki {
				break
			}
			if bra.Bound*ket.Bound < w.Threshold {
				continue
			}
			blk := ERIBlock(&shells[bra.I], &shells[bra.J], &shells[ket.I], &shells[ket.J])
			digestUniqueQuartet(j, dj, ks, dks, shells, bra.I, bra.J, ket.I, ket.J, blk)
			done++
		}
	}
	return done
}

// BuildFockBaseline is BuildFock through ExecuteTaskBaseline: the serial
// pre-arena reference Fock matrix TestBuildFockMatchesBaseline holds
// BuildFock to, and through it every cell of core's differential
// equivalence matrix.
func (w *FockWorkload) BuildFockBaseline(h, d *linalg.Matrix) *linalg.Matrix {
	n := w.Basis.NBF
	j := linalg.NewMatrix(n, n)
	k := linalg.NewMatrix(n, n)
	for i := range w.Tasks {
		w.ExecuteTaskBaseline(&w.Tasks[i], d, j, k)
	}
	return assembleFock(h, j, k, 0.5)
}
