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
// coefficient per term.
type PairData struct {
	A, B  *Shell
	prims []pairPrim
	q     []float64 // Cauchy–Schwarz factor of each primitive pair, descending
	start []int32   // terms of component pair ab are start[ab]:start[ab+1]
	slot  []int32   // position of each term's (t,u,v) in hermiteOffsets(A.L+B.L)
}

// numHermite returns the number of Hermite indices with t+u+v <= l.
func numHermite(l int) int { return (l + 1) * (l + 2) * (l + 3) / 6 }

// hermiteOffsets appends to dst, for every Hermite index t+u+v <= l in a
// fixed order, its offset (t·n+u)·n+v in a cube of stride n.
func hermiteOffsets(dst []int32, l, n int) []int32 {
	for t := 0; t <= l; t++ {
		for u := 0; u <= l-t; u++ {
			for v := 0; v <= l-t-u; v++ {
				dst = append(dst, int32((t*n+u)*n+v))
			}
		}
	}
	return dst
}

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
	ca, cb := Components(a.L), Components(b.L)
	lab := a.L + b.L
	pd := &PairData{
		A: a, B: b,
		prims: make([]pairPrim, 0, len(a.Exps)*len(b.Exps)),
		start: make([]int32, 0, len(ca)*len(cb)+1),
		// A component pair's terms are a box inside t+u+v <= lab.
		slot: make([]int32, 0, len(ca)*len(cb)*numHermite(lab)),
	}
	tuv := make([][3]int, 0, cap(pd.slot)) // Hermite index of each term
	// slotOf inverts hermiteOffsets on a cube just large enough for lab.
	slotOf := make([]int32, (lab+1)*(lab+1)*(lab+1))
	for i, off := range hermiteOffsets(nil, lab, lab+1) {
		slotOf[off] = int32(i)
	}
	for _, A := range ca {
		for _, B := range cb {
			pd.start = append(pd.start, int32(len(tuv)))
			for t := 0; t <= A.Lx+B.Lx; t++ {
				for u := 0; u <= A.Ly+B.Ly; u++ {
					for v := 0; v <= A.Lz+B.Lz; v++ {
						tuv = append(tuv, [3]int{t, u, v})
						pd.slot = append(pd.slot, slotOf[(t*(lab+1)+u)*(lab+1)+v])
					}
				}
			}
		}
	}
	nt := len(tuv)
	pd.start = append(pd.start, int32(nt))

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
			scale := a.Coefs[pi] * b.Coefs[pj] / p
			for ab := range pd.start[1:] {
				A, B := ca[ab/len(cb)], cb[ab%len(cb)]
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

// eriBlockPairInto is ERIBlockPairInto on the skip budget given instead
// of the scratch's: the Fock executor divides s.budget by the density
// weight of the quartet, so that the budget bounds what the skipped
// primitive quartets move a Fock element, not an integral.
func eriBlockPairInto(bra, ket *PairData, s *ERIScratch, budget float64) []float64 {
	a, b, c, d := bra.A, bra.B, ket.A, ket.B
	nab, ncd := len(bra.start)-1, len(ket.start)-1
	if cap(s.blk) < nab*ncd {
		s.blk = make([]float64, nab*ncd)
	}
	blk := s.blk[:nab*ncd]
	cut := primCut(bra, ket, budget)
	ltot := a.L + b.L + c.L + d.L
	if ltot == 0 {
		// (ss|ss): one term a side, R is F_0.
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
		blk[0] = 2 * piPow25 * sum
		return blk
	}
	clear(blk)

	// T costs (bra Hermite indices) × (ket terms) per primitive quartet and
	// the final contraction only (bra terms) × (ket components) per bra
	// primitive, so the pair with the larger angular momentum plays the
	// bra: (ab|cd) = (cd|ab), written to blk through swapped strides.
	nb, nk, sb, sk := nab, ncd, ncd, 1
	if c.L+d.L > a.L+b.L {
		bra, ket = ket, bra
		nb, nk, sb, sk = ncd, nab, 1, ncd
	}
	lbra := bra.A.L + bra.B.L
	n1 := ltot + 1
	nh := numHermite(lbra)
	if cap(s.acc) < nk*nh {
		s.acc = make([]float64, nk*nh)
	}
	acc := s.acc[:nk*nh]
	s.braOff = hermiteOffsets(s.braOff[:0], lbra, n1)
	s.ketOff = hermiteOffsets(s.ketOff[:0], ltot-lbra, n1)
	braOff, ketOff := s.braOff, s.ketOff

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
			for cd := 0; cd < nk; cd++ {
				t := acc[cd*nh : (cd+1)*nh]
				for k := ket.start[cd]; k < ket.start[cd+1]; k++ {
					e, rk := qq.eKet[k], r[ketOff[ket.slot[k]]:]
					for i, bo := range braOff {
						t[i] += e * rk[bo]
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
