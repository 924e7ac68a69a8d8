package chem

import (
	"cmp"
	"math"
	"slices"
)

// piPow25 is the π^{5/2} prefactor constant of the Coulomb Gaussian
// product theorem, hoisted out of the primitive-quartet loop.
var piPow25 = math.Pow(math.Pi, 2.5)

// pairPrim holds the primitive-pair quantities of one (primitive a,
// primitive b) combination of a shell pair: everything about the bra (or
// ket) charge distribution that does not depend on the partner pair.
type pairPrim struct {
	p float64 // exponent sum
	P Vec3    // Gaussian product center
	// e holds, for every term of PairData's term list, the product
	// E_t·E_u·E_v scaled by the pair's share of the integral prefactor,
	// (contraction coefficient product)/p; eKet is e with the ket sign
	// (−1)^(t+u+v) folded in.
	e, eKet []float64
}

// PairData caches the Hermite expansion of a shell pair. Computing it once
// per pair — instead of once per quartet — removes the dominant redundant
// work of the ERI engine: each pair appears in O(#pairs) quartets.
//
// Each primitive pair also has its own Cauchy–Schwarz factor q =
// sqrt(max_ab |(ab|ab)|), with the contraction coefficients and the
// component norms inside: no element of any block gets more than q·q'
// from the primitive quartet of this pair and a partner pair's q'. The
// primitive pairs are stored in descending order of q, so that
// ERIBlockPairInto can stop a primitive loop at the first pair whose
// bound falls below its cut (see primKept).
//
// The expansion is stored flat. A term is one structurally non-zero
// Hermite index (t,u,v) of one Cartesian component pair ab = fa·nb+fb,
// i.e. t <= lx, u <= ly, v <= lz of the component pair's summed angular
// momenta. The term list is shared by all primitive pairs; each holds one
// coefficient per term. A merged sp shell contributes the components of
// both its parts (shellComps), each pair of them with its own
// coefficients, so one pair's primitive loop serves all four part pairs.
type PairData struct {
	A, B  *Shell
	lab   int // Hermite order: the highest summed angular momentum of a component pair
	prims []pairPrim
	q     []float64 // Cauchy–Schwarz factor of each primitive pair, descending
	start []int32   // terms of component pair ab are start[ab]:start[ab+1]
	slot  []int32   // position of each term's (t,u,v) in hermiteOff[lab]: its T index as the bra
	roff  []int32   // each term's R-cube offset as the ket, hermiteOff[lab][slot[k]]
	// norm is each component pair's product of ComponentNorms factors;
	// nil when every one is 1 (no d shell).
	norm []float64
}

// shellComp is one Cartesian component of a shell with the contraction
// coefficients of the part it belongs to and its ComponentNorms factor.
type shellComp struct {
	CartComponent
	coefs []float64
	norm  float64
}

// shellComps lists the Cartesian components of every part of sh, in
// basis-function order.
func shellComps(sh *Shell) []shellComp {
	ps, n := sh.parts()
	out := make([]shellComp, 0, sh.NumFuncs())
	for _, p := range ps[:n] {
		coefs, norms := sh.part(p).Coefs, ComponentNorms(p.L)
		for i, c := range Components(p.L) {
			out = append(out, shellComp{c, coefs, norms[i]})
		}
	}
	return out
}

// numHermite returns the number of Hermite indices with t+u+v <= l.
func numHermite(l int) int { return (l + 1) * (l + 2) * (l + 3) / 6 }

// hermiteOff[l] lists, for every Hermite index t+u+v <= l in a fixed
// order, its offset (t·rStride+u)·rStride+v in the R cube. A PairData's
// slot indexes hermiteOff[lab], and the kernel's T[cd][tuv] is laid out
// in the same order.
var hermiteOff = func() (tab [boysTableOrder + 1][]int32) {
	for l := range tab {
		for t := 0; t <= l; t++ {
			for u := 0; u <= l-t; u++ {
				for v := 0; v <= l-t-u; v++ {
					tab[l] = append(tab[l], int32((t*rStride+u)*rStride+v))
				}
			}
		}
	}
	return tab
}()

// NewPairData precomputes the Hermite expansion of the shell pair (a, b)
// and the Cauchy–Schwarz factor q of each of its primitive pairs.
func NewPairData(a, b *Shell) *PairData {
	pd, _ := newPairData(a, b, &ERIScratch{})
	return pd
}

// newPairData is NewPairData computing the factors q on s, which must be
// exact (a zero budget). It also returns the shell pair's own
// Cauchy–Schwarz factor, sqrt(max_ab |(ab|ab)|), exact as well.
func newPairData(a, b *Shell, s *ERIScratch) (*PairData, float64) {
	ca, cb := shellComps(a), shellComps(b)
	lab := a.L + b.L
	pd := &PairData{
		A: a, B: b, lab: lab,
		prims: make([]pairPrim, 0, len(a.Exps)*len(b.Exps)),
		start: make([]int32, 0, len(ca)*len(cb)+1),
		// A component pair's terms are a box inside t+u+v <= lab.
		slot: make([]int32, 0, len(ca)*len(cb)*numHermite(lab)),
		roff: make([]int32, 0, len(ca)*len(cb)*numHermite(lab)),
	}
	tuv := make([][3]int, 0, cap(pd.slot)) // Hermite index of each term
	// slotOf inverts hermiteOff[lab].
	slotOf := make([]int32, cubeLen(lab))
	for i, off := range hermiteOff[lab] {
		slotOf[off] = int32(i)
	}
	norm := make([]float64, 0, len(ca)*len(cb))
	for _, A := range ca {
		for _, B := range cb {
			norm = append(norm, A.norm*B.norm)
			pd.start = append(pd.start, int32(len(tuv)))
			for t := 0; t <= A.Lx+B.Lx; t++ {
				for u := 0; u <= A.Ly+B.Ly; u++ {
					for v := 0; v <= A.Lz+B.Lz; v++ {
						off := (t*rStride+u)*rStride + v
						tuv = append(tuv, [3]int{t, u, v})
						pd.slot = append(pd.slot, slotOf[off])
						pd.roff = append(pd.roff, int32(off))
					}
				}
			}
		}
	}
	nt := len(tuv)
	pd.start = append(pd.start, int32(nt))
	if a.L >= 2 || b.L >= 2 {
		pd.norm = norm
	}

	sep := a.Center.Sub(b.Center)
	ex, ey, ez := makeHermiteE(a.L, b.L), makeHermiteE(a.L, b.L), makeHermiteE(a.L, b.L)
	coefs := make([]float64, 2*nt*cap(pd.prims))
	for pi, ea := range a.Exps {
		for pj, eb := range b.Exps {
			p := ea + eb
			ex.fill(ea, eb, sep.X)
			ey.fill(ea, eb, sep.Y)
			ez.fill(ea, eb, sep.Z)
			e, eKet := coefs[:nt:nt], coefs[nt:2*nt:2*nt]
			coefs = coefs[2*nt:]
			for ab := range pd.start[1:] {
				A, B := ca[ab/len(cb)], cb[ab%len(cb)]
				scale := A.coefs[pi] * B.coefs[pj] / p
				for k := pd.start[ab]; k < pd.start[ab+1]; k++ {
					t, u, v := tuv[k][0], tuv[k][1], tuv[k][2]
					e[k] = scale * ex.at(A.Lx, B.Lx, t) * ey.at(A.Ly, B.Ly, u) * ez.at(A.Lz, B.Lz, v)
					eKet[k] = e[k]
					if (t+u+v)&1 == 1 {
						eKet[k] = -e[k]
					}
				}
			}
			pd.prims = append(pd.prims, pairPrim{
				p:    p,
				P:    a.Center.Scale(ea / p).Add(b.Center.Scale(eb / p)),
				e:    e,
				eKet: eKet,
			})
		}
	}
	// One exact kernel call on a one-primitive view of pair i against
	// itself gives q_i, the d-shell component norms inside, and one
	// against the pairs after it the rest of row i of the shell pair's
	// diagonal elements: (ab_i|ab_k) = (ab_k|ab_i), so (ab|ab) =
	// Σ_i (ab_i|ab_i) + 2 Σ_{i<k} (ab_i|ab_k), half the primitive
	// quartets of the whole block.
	nf := len(pd.start) - 1
	diag := make([]float64, nf)
	q := make([]float64, len(pd.prims))
	vi, vk := *pd, *pd
	for i := range pd.prims {
		vi.prims, vi.q = pd.prims[i:i+1], q[i:i+1]
		blk := ERIBlockPairInto(&vi, &vi, s)
		var mx float64
		for ab := range diag {
			v := blk[ab*nf+ab]
			diag[ab] += v
			mx = math.Max(mx, math.Abs(v))
		}
		q[i] = math.Sqrt(mx)
		if i+1 < len(pd.prims) {
			vk.prims, vk.q = pd.prims[i+1:], q[i+1:]
			blk = ERIBlockPairInto(&vi, &vk, s)
			for ab := range diag {
				diag[ab] += 2 * blk[ab*nf+ab]
			}
		}
	}
	var mx float64
	for _, v := range diag {
		mx = math.Max(mx, math.Abs(v))
	}

	order := make([]int, len(q))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(x, y int) int { return cmp.Compare(q[y], q[x]) })
	prims := make([]pairPrim, len(order))
	pd.q = make([]float64, len(order))
	for i, o := range order {
		prims[i], pd.q[i] = pd.prims[o], q[o]
	}
	pd.prims = prims
	return pd, math.Sqrt(mx)
}

// primBudget is the skip budget of a Fock build at Schwarz threshold:
// the most that what it skips of one integral, whole quartet or
// primitive quartets, may move the terms that integral adds to a Fock
// element (executeTask): min(threshold, 1e-12). It does not grow with a
// loose threshold, because the skipped
// terms add up over a task's quartets and the build is held to the
// unskipped baseline at fixed tolerances (1e-12 per task, 1e-11 per Fock
// matrix) whatever the threshold; a budget equal to the threshold
// breaks both already at 1e-10 and 1e-8.
func primBudget(threshold float64) float64 { return math.Min(threshold, 1e-12) }

// primCut is the bound below which ERIBlockPairInto skips a primitive
// quartet of (bra|ket): the budget shared among all of the block's
// primitive quartets, so that everything skipped from one integral
// stays below the budget.
func primCut(bra, ket *PairData, budget float64) float64 {
	return budget / float64(len(bra.prims)*len(ket.prims))
}

// primKept returns how many of ket's primitive pairs, from the first,
// the kernel evaluates against a bra primitive pair of factor qb: those
// whose bound qb·q reaches cut. By Cauchy–Schwarz on the Coulomb metric
// a primitive quartet moves no element of its block by more than qb·q,
// and since ket's pairs are sorted by descending q, the kept pairs are a
// prefix. kept is the prefix kept against the previous bra primitive
// pair (all of them for the first): the bra's pairs are sorted too, so
// the prefix only shrinks. A zero cut keeps every pair. It is the one skip
// predicate: the kernel's loops and the workload's counts
// (primQuartetsKept) both go through it.
func primKept(ket *PairData, qb, cut float64, kept int) int {
	for kept > 0 && qb*ket.q[kept-1] < cut {
		kept--
	}
	return kept
}

// primQuartetsKept counts the primitive quartets ERIBlockPairInto
// evaluates for (bra|ket) on a scratch of the given budget.
func primQuartetsKept(bra, ket *PairData, budget float64) int {
	cut := primCut(bra, ket, budget)
	n, kept := 0, len(ket.q)
	for _, qb := range bra.q {
		if kept = primKept(ket, qb, cut, kept); kept == 0 {
			break
		}
		n += kept
	}
	return n
}

// ERIBlockPairInto computes the (bra|ket) shell-quartet block from two
// precomputed pair datasets into the scratch arena s. The result layout
// matches the test oracle ERIBlock(bra.A, bra.B, ket.A, ket.B), in
// oracle_test.go. The returned slice aliases
// s and stays valid only until the next call using s. With a warmed-up
// scratch the steady-state computation performs zero heap allocations.
//
// The McMurchie–Davidson sum over a primitive quartet,
//
//	(ab|cd) += Σ_{tuv} E^{ab}_{tuv} Σ_{τνφ} (−1)^{τ+ν+φ} E^{cd}_{τνφ} · pref · R_{t+τ,u+ν,v+φ},
//
// is factored: for one bra primitive, T[cd][tuv] collects the inner sum
// over all ket primitives, and the bra coefficients are then applied
// once. R is read straight out of its cube: an index sum is an offset
// sum, pref is folded into the cube, and the rest of the prefactor into
// the coefficients.
//
// A scratch with a budget (FockWorkload.NewScratch) skips the primitive
// quartets whose Cauchy–Schwarz bound falls below primCut: the ket loop
// ends at the first ket primitive pair below it and the bra loop at the
// first bra primitive pair that keeps no ket one, so no integral moves by
// more than the budget. A zero-value scratch and NewERIScratch are exact.
func ERIBlockPairInto(bra, ket *PairData, s *ERIScratch) []float64 {
	return eriBlockPairInto(bra, ket, s, s.budget)
}

// eriSSSS is eriBlockPairInto's scalar path, the one element of an
// (ss|ss) block: one term a side, R is F_0. A function of its own, it
// compiles apart from the kernel's larger loops.
func eriSSSS(bra, ket *PairData, cut float64) float64 {
	var sum float64
	var f [1]float64
	kept := len(ket.prims)
	for bp := range bra.prims {
		pp := &bra.prims[bp]
		if kept = primKept(ket, bra.q[bp], cut, kept); kept == 0 {
			break
		}
		for kp := range ket.prims[:kept] {
			qq := &ket.prims[kp]
			ipq := 1 / (pp.p + qq.p)
			Boys(0, pp.p*qq.p*ipq*pp.P.Sub(qq.P).Norm2(), f[:])
			sum += pp.e[0] * qq.e[0] * math.Sqrt(ipq) * f[0]
		}
	}
	return 2 * piPow25 * sum
}

// eriBlockPairInto is ERIBlockPairInto on the skip budget given instead
// of the scratch's: the Fock executor divides s.budget by the density
// weight of the quartet, so that the budget bounds what the skipped
// primitive quartets move a Fock element, not an integral.
func eriBlockPairInto(bra, ket *PairData, s *ERIScratch, budget float64) []float64 {
	nab, ncd := len(bra.start)-1, len(ket.start)-1
	if cap(s.blk) < nab*ncd {
		s.blk = make([]float64, nab*ncd)
	}
	blk := s.blk[:nab*ncd]
	cut := primCut(bra, ket, budget)
	ltot := bra.lab + ket.lab
	if ltot == 0 {
		blk[0] = eriSSSS(bra, ket, cut)
		return blk
	}
	clear(blk)
	normAB, normCD := bra.norm, ket.norm
	const n1, n2 = rStride, rStride * rStride

	// T costs (bra Hermite indices) × (ket terms) per primitive quartet and
	// the final contraction only (bra terms) × (ket components) per bra
	// primitive, so the pair with the larger angular momentum plays the
	// bra: (ab|cd) = (cd|ab), written to blk through swapped strides.
	nb, nk, sb, sk := nab, ncd, ncd, 1
	if ket.lab > bra.lab {
		bra, ket = ket, bra
		nb, nk, sb, sk = ncd, nab, 1, ncd
	}
	lbra := bra.lab
	nh := numHermite(lbra)
	if cap(s.acc) < nk*nh {
		s.acc = make([]float64, nk*nh)
	}
	acc := s.acc[:nk*nh]
	braOff := hermiteOff[lbra]

	kept := len(ket.prims)
	for bp := range bra.prims {
		pp := &bra.prims[bp]
		if kept = primKept(ket, bra.q[bp], cut, kept); kept == 0 {
			break
		}
		clear(acc)
		for kp := range ket.prims[:kept] {
			qq := &ket.prims[kp]
			ipq := 1 / (pp.p + qq.p)
			r := s.rw.compute(ltot, pp.p*qq.p*ipq, pp.P.Sub(qq.P), 2*piPow25*math.Sqrt(ipq))
			// T[cd][tuv] += Σ_k e_k R[roff_k + bra offset_tuv]. The
			// bra widths the shipped bases reach, nh = 4 (lbra 1) and 10
			// (lbra 2), sum a component pair's terms in registers at the
			// constant offsets of hermiteOff[1] and [2]: an int offset and
			// a slice of constant length leave one bounds check per term
			// on R. Only 6-31G* d pairs take the generic loop.
			switch lbra {
			case 1:
				for cd := 0; cd < nk; cd++ {
					var t0, t1, t2, t3 float64
					for k := ket.start[cd]; k < ket.start[cd+1]; k++ {
						o := int(ket.roff[k])
						e, rk := qq.eKet[k], r[o:o+n2+1]
						t0 += e * rk[0]
						t1 += e * rk[1]
						t2 += e * rk[n1]
						t3 += e * rk[n2]
					}
					t := acc[cd*4 : cd*4+4]
					t[0] += t0
					t[1] += t1
					t[2] += t2
					t[3] += t3
				}
			case 2:
				for cd := 0; cd < nk; cd++ {
					var t0, t1, t2, t3, t4, t5, t6, t7, t8, t9 float64
					for k := ket.start[cd]; k < ket.start[cd+1]; k++ {
						o := int(ket.roff[k])
						e, rk := qq.eKet[k], r[o:o+2*n2+1]
						t0 += e * rk[0]
						t1 += e * rk[1]
						t2 += e * rk[2]
						t3 += e * rk[n1]
						t4 += e * rk[n1+1]
						t5 += e * rk[2*n1]
						t6 += e * rk[n2]
						t7 += e * rk[n2+1]
						t8 += e * rk[n2+n1]
						t9 += e * rk[2*n2]
					}
					t := acc[cd*10 : cd*10+10]
					t[0] += t0
					t[1] += t1
					t[2] += t2
					t[3] += t3
					t[4] += t4
					t[5] += t5
					t[6] += t6
					t[7] += t7
					t[8] += t8
					t[9] += t9
				}
			default:
				for cd := 0; cd < nk; cd++ {
					t := acc[cd*nh : (cd+1)*nh]
					for k := ket.start[cd]; k < ket.start[cd+1]; k++ {
						e, rk := qq.eKet[k], r[ket.roff[k]:]
						for i, bo := range braOff {
							t[i] += e * rk[bo]
						}
					}
				}
			}
		}
		for ab := 0; ab < nb; ab++ {
			b0, b1 := bra.start[ab], bra.start[ab+1]
			eb, sl := pp.e[b0:b1], bra.slot[b0:b1]
			for cd := 0; cd < nk; cd++ {
				t := acc[cd*nh : (cd+1)*nh]
				var sum float64
				for k, e := range eb {
					sum += e * t[sl[k]]
				}
				blk[ab*sb+cd*sk] += sum
			}
		}
	}
	if normAB != nil || normCD != nil {
		for ab := 0; ab < nab; ab++ {
			f := 1.0
			if normAB != nil {
				f = normAB[ab]
			}
			for cd, v := range blk[ab*ncd : (ab+1)*ncd] {
				if normCD != nil {
					v *= normCD[cd]
				}
				blk[ab*ncd+cd] = v * f
			}
		}
	}
	return blk
}
