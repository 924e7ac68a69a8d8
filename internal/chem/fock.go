package chem

import (
	"hash/fnv"
	"math"
	"sort"

	"execmodels/internal/linalg"
)

// digestQuartet is the test oracle digestUniqueQuartet (oracle_test.go),
// which walks the block once per permutation, in one pass. With
// a ≤ b and c ≤ d, as every shell pair is stored, the distinct
// permutations of the quartet are exactly the products of three flags,
// fab: a≠b, fcd: c≠d and fbk: (a,b)≠(c,d). Taken as 0/1 weights, they
// let each element v = (μν|λσ), μ∈a, ν∈b, λ∈c, σ∈d, add the terms of
// every distinct permutation at once:
//
//	J[μν] += (DJ[λσ] + fcd·DJ[σλ])·v       J[νμ] += fab·(DJ[λσ] + fcd·DJ[σλ])·v
//	J[λσ] += fbk·(DJ[μν] + fab·DJ[νμ])·v   J[σλ] += fbk·fcd·(DJ[μν] + fab·DJ[νμ])·v
//	K[μλ] += DK[νσ]·v                      K[λμ] += fbk·DK[σν]·v
//	K[νλ] += fab·DK[μσ]·v                  K[λν] += fbk·fab·DK[σμ]·v
//	K[μσ] += fcd·DK[νλ]·v                  K[σμ] += fbk·fcd·DK[λν]·v
//	K[νσ] += fab·fcd·DK[μλ]·v              K[σν] += fbk·fab·fcd·DK[λμ]·v
//
// for every exchange density DK and its K. These are the terms of
// digestUniqueQuartet's permuted views, summed in a different order; no
// density is assumed symmetric.
func digestQuartet(j, dj *linalg.Matrix, ks, dks []*linalg.Matrix, shells []Shell, ia, ib, ic, id int, blk []float64) {
	a, b, c, d := &shells[ia], &shells[ib], &shells[ic], &shells[id]
	na, nb, nc, nd := a.NumFuncs(), b.NumFuncs(), c.NumFuncs(), d.NumFuncs()
	var fab, fcd, fbk float64
	if ia != ib {
		fab = 1
	}
	if ic != id {
		fcd = 1
	}
	if ia != ic || ib != id {
		fbk = 1
	}
	n, s0 := j.Cols, d.Start
	jd, djd := j.Data, dj.Data
	e := 0
	for fa := 0; fa < na; fa++ {
		mu := a.Start + fa
		for fb := 0; fb < nb; fb++ {
			nu := b.Start + fb
			cJ := fbk * (djd[mu*n+nu] + fab*djd[nu*n+mu])
			cJT := fcd * cJ
			var jAcc float64
			for fc := 0; fc < nc; fc++ {
				lam := c.Start + fc
				row := blk[e : e+nd]
				e += nd
				// Flat indices walk σ along row λ (λσ) and down column λ
				// (σλ) of J; below, along rows μ and ν and down columns μ
				// and ν of each K and its density.
				ls, sl := lam*n+s0, s0*n+lam
				for _, v := range row {
					jAcc += (djd[ls] + fcd*djd[sl]) * v
					jd[ls] += cJ * v
					jd[sl] += cJT * v
					ls++
					sl += n
				}
				for i, k := range ks {
					dk, kd := dks[i].Data, k.Data
					cMS := fcd * dk[nu*n+lam]
					cNS := fab * fcd * dk[mu*n+lam]
					cSM := fbk * fcd * dk[lam*n+nu]
					cSN := fbk * fab * fcd * dk[lam*n+mu]
					var aML, aNL, aLM, aLN float64
					ms, ns, sm, sn := mu*n+s0, nu*n+s0, s0*n+mu, s0*n+nu
					for _, v := range row {
						aML += dk[ns] * v
						aNL += dk[ms] * v
						aLM += dk[sn] * v
						aLN += dk[sm] * v
						kd[ms] += cMS * v
						kd[ns] += cNS * v
						kd[sm] += cSM * v
						kd[sn] += cSN * v
						ms++
						ns++
						sm += n
						sn += n
					}
					kd[mu*n+lam] += aML
					kd[nu*n+lam] += fab * aNL
					kd[lam*n+mu] += fbk * aLM
					kd[lam*n+nu] += fbk * fab * aLN
				}
			}
			jd[mu*n+nu] += jAcc
			jd[nu*n+mu] += fab * jAcc
		}
	}
}

// pairIndex maps a shell pair i <= j to its canonical triangular index.
func pairIndex(i, j int) int { return j*(j+1)/2 + i }

// FockTask is one work unit of the two-electron Fock build: a contiguous
// block of unique bra shell-pairs. Executing the task computes, for every
// bra pair in the block, the surviving unique quartets with ket pair
// index <= bra pair index, and digests them into partial J/K matrices.
//
// Schwarz screening is resolved when the task is generated: Kets holds
// the exact surviving ket-pair index list per bra pair, so the task
// multiset handed to a scheduler is already pruned. What a build's
// density adds is tested by the executor, per quartet (executeTask), so
// Kets, NumQuarts, EstFlops and Key stay the same from build to build.
type FockTask struct {
	ID         int
	BraPairs   []ShellPair // the bra pairs owned by this task
	PairOffset int         // index of BraPairs[0] within the workload's Pairs
	EstFlops   float64     // cost-model estimate (eriBlockFlops sum, post-screening)
	NumQuarts  int         // surviving quartets (post-screening)

	// Kets[i] lists, in ascending order, the workload pair indices of the
	// surviving ket pairs for BraPairs[i] (those with index <= the bra's
	// global position whose bound product clears the threshold). All rows
	// share one backing array sized NumQuarts.
	Kets [][]int32
}

// Key returns a stable content hash identifying the task across Fock
// builds: equal key ⇒ same bra pairs, same screened quartet count, same
// cost estimate. Feedback schedulers store measured-cost history under
// these keys, so a re-blocked or re-screened decomposition (different
// content) starts cold instead of inheriting stale measurements.
func (t *FockTask) Key() uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	put(uint64(t.PairOffset))
	put(uint64(t.NumQuarts))
	put(math.Float64bits(t.EstFlops))
	for i := range t.BraPairs {
		put(uint64(t.BraPairs[i].I)<<32 | uint64(uint32(t.BraPairs[i].J)))
	}
	return h.Sum64()
}

// FockWorkload is the screened, blocked decomposition of one Fock build.
type FockWorkload struct {
	Basis     *BasisSet
	Pairs     []ShellPair // significant pairs, sorted by ascending pair index
	Tasks     []FockTask
	Threshold float64

	// pairData caches the per-pair Hermite tables aligned with Pairs:
	// computed once, reused by every quartet the pair participates in.
	pairData []*PairData
}

// BuildFockWorkload screens the shell pairs of bs at threshold and groups
// the surviving bra pairs into tasks of blockSize consecutive pairs. Task
// costs are estimated with the deterministic flop model, so schedulers can
// be studied both with and without cost knowledge.
func BuildFockWorkload(bs *BasisSet, threshold float64, blockSize int) *FockWorkload {
	return BuildFockWorkloadFromPairs(bs, SchwarzBounds(bs), threshold, blockSize)
}

// BuildFockWorkloadFromPairs is BuildFockWorkload with precomputed Schwarz
// bounds, so granularity sweeps can re-block the same screening data
// without recomputing the (ij|ij) integrals each time. allPairs must come
// from SchwarzBounds: the workload takes over the Hermite tables each
// pair carries.
func BuildFockWorkloadFromPairs(bs *BasisSet, allPairs []ShellPair, threshold float64, blockSize int) *FockWorkload {
	if blockSize < 1 {
		panic("chem: blockSize must be >= 1")
	}
	pairs := SignificantPairs(allPairs, threshold)
	// Sort by canonical triangular pair index so slice position and
	// pairIndex induce the same total order; the bra >= ket uniqueness
	// criterion below then agrees exactly between cost estimation and
	// execution.
	sort.Slice(pairs, func(a, b int) bool {
		return pairIndex(pairs[a].I, pairs[a].J) < pairIndex(pairs[b].I, pairs[b].J)
	})
	w := &FockWorkload{Basis: bs, Pairs: pairs, Threshold: threshold}
	w.pairData = make([]*PairData, len(pairs))
	for i, p := range pairs {
		w.pairData[i] = p.pd
	}
	w.blockTasks(blockSize)
	return w
}

// blockTasks builds the task decomposition at the given bra-pair
// block size, resolving Schwarz screening into each task's explicit
// Kets lists: no quartet outside them is ever evaluated. Workers test
// only the density rule on top (executeTask).
func (w *FockWorkload) blockTasks(blockSize int) {
	bs, pairs := w.Basis, w.Pairs
	flops := make([]pairFlops, len(pairs))
	for i, p := range pairs {
		flops[i] = newPairFlops(&bs.Shells[p.I], &bs.Shells[p.J])
	}
	w.Tasks = nil
	for start := 0; start < len(pairs); start += blockSize {
		end := start + blockSize
		if end > len(pairs) {
			end = len(pairs)
		}
		t := FockTask{ID: len(w.Tasks), BraPairs: pairs[start:end], PairOffset: start}
		t.Kets = make([][]int32, end-start)
		// First pass sizes the shared backing array so the per-bra rows
		// are sub-slices of one allocation.
		for bi := start; bi < end; bi++ {
			for ki := 0; ki <= bi; ki++ {
				if quartetSurvives(&pairs[bi], &pairs[ki], w.Threshold) {
					t.NumQuarts++
				}
			}
		}
		kets := make([]int32, 0, t.NumQuarts)
		for bi := start; bi < end; bi++ {
			bra := &pairs[bi]
			row := len(kets)
			for ki := 0; ki <= bi; ki++ {
				ket := &pairs[ki]
				if !quartetSurvives(bra, ket, w.Threshold) {
					continue
				}
				kets = append(kets, int32(ki))
				t.EstFlops += eriBlockFlops(&flops[bi], &flops[ki])
			}
			t.Kets[bi-start] = kets[row:len(kets):len(kets)]
		}
		w.Tasks = append(w.Tasks, t)
	}
}

// WorkloadStats summarizes how much work symmetry folding and Schwarz
// screening removed before any task reached a scheduler, and how much of
// what survived the kernel's primitive-quartet bound removes after.
type WorkloadStats struct {
	Shells           int   // basis shells N
	AllPairs         int   // N(N+1)/2 candidate shell pairs
	SignificantPairs int   // pairs surviving SignificantPairs
	NaiveQuartets    int64 // N^4 ordered quartets of the symmetry-free loop
	UniqueQuartets   int64 // canonical quartets before screening: M(M+1)/2, M = AllPairs
	Surviving        int64 // unique quartets surviving Schwarz screening (sum of task NumQuarts)
	PrimQuartets     int64 // primitive quartets of the surviving quartets
	PrimSurviving    int64 // those a NewScratch evaluates at unit density weight: their Cauchy–Schwarz bound clears the kernel's cut
}

// Stats returns the workload's symmetry/screening accounting. The
// primitive-quartet counts come from the stored primitive factors through
// the kernel's own skip predicate (primQuartetsKept), not from a run, at
// a density weight of 1: a build keeps more of them where its density
// weighs a quartet above 1, and fewer where below (executeTask).
// They are counted here, on demand, rather than when the tasks are
// generated: the count costs more than the rest of task generation
// together, and only reports read it.
func (w *FockWorkload) Stats() WorkloadStats {
	n := int64(len(w.Basis.Shells))
	m := n * (n + 1) / 2
	st := WorkloadStats{
		Shells:           int(n),
		AllPairs:         int(m),
		SignificantPairs: len(w.Pairs),
		NaiveQuartets:    n * n * n * n,
		UniqueQuartets:   m * (m + 1) / 2,
	}
	budget := primBudget(w.Threshold)
	for i := range w.Tasks {
		t := &w.Tasks[i]
		st.Surviving += int64(t.NumQuarts)
		for bi, kets := range t.Kets {
			bra := w.pairData[t.PairOffset+bi]
			for _, ki := range kets {
				ket := w.pairData[ki]
				st.PrimQuartets += int64(len(bra.prims) * len(ket.prims))
				st.PrimSurviving += int64(primQuartetsKept(bra, ket, budget))
			}
		}
	}
	return st
}

// ExecuteTaskScratch runs one Fock task against density d through the
// caller's scratch arena (one per worker), accumulating into the caller's
// partial J and K matrices. It returns the number of quartets actually
// computed: on an exact scratch (NewERIScratch) exactly the task's
// NumQuarts, since Schwarz screening was resolved at generation time into
// the Kets lists (each unique quartet appears on exactly one task), and
// on a Fock build's (NewScratch) those of them the density rule of
// executeTask does not skip. With a warmed-up arena the
// steady state performs zero heap allocations per task (enforced by a
// testing.AllocsPerRun gate).
func (w *FockWorkload) ExecuteTaskScratch(t *FockTask, d, j, k *linalg.Matrix, s *ERIScratch) int {
	s.ks[0], s.dks[0] = k, d
	return w.executeTask(t, d, s.ks[:1], s.dks[:1], j, s)
}

// ExecuteTaskSpinScratch is the unrestricted (UHF) variant: J contracts
// the total density while separate exchange matrices contract the α and
// β densities.
func (w *FockWorkload) ExecuteTaskSpinScratch(t *FockTask, dTot, dA, dB, j, kA, kB *linalg.Matrix, s *ERIScratch) int {
	s.ks[0], s.ks[1] = kA, kB
	s.dks[0], s.dks[1] = dA, dB
	return w.executeTask(t, dTot, s.ks[:2], s.dks[:2], j, s)
}

// executeTask digests the quartets on the task's pre-screened Kets
// lists, each weighed by the density it contracts. Schwarz screening was
// fixed at task-generation time (blockTasks); the density changes from
// build to build, so it is tested here. An integral of (ab|cd) enters J
// times D_J over ab or cd (twice: cd and dc) and K times D_K over ac, ad,
// bc or bd, and a Fock element can take both a J and a K term of it. So
// with w = 2·max(2|D_J|ab, 2|D_J|cd, |D_K|ac, |D_K|ad, |D_K|bc, |D_K|bd),
// from shell-block maxima, an integral that moves by δ moves no Fock
// element by more than δ·w: the quartet is skipped when Q_ab·Q_cd·w falls
// below the scratch's budget, and the kernel otherwise gets the budget
// divided by w for its primitive quartets. A zero budget is exact.
func (w *FockWorkload) executeTask(t *FockTask, dj *linalg.Matrix, ks, dks []*linalg.Matrix, j *linalg.Matrix, s *ERIScratch) int {
	shells := w.Basis.Shells
	ns := len(shells)
	mj, mk := s.dMaxJ, s.dMaxK // sized by NewERIScratch, which every scratch with a budget comes from
	if s.budget > 0 {
		clear(mj)
		blockMaxAbs(mj, shells, dj)
		if len(dks) == 1 && dks[0] == dj {
			copy(mk, mj) // RHF: exchange contracts J's own density
		} else {
			clear(mk)
			for _, dk := range dks {
				blockMaxAbs(mk, shells, dk)
			}
		}
	}
	var done int
	for bi, bra := range t.BraPairs {
		braPD := w.pairData[t.PairOffset+bi]
		// The bra's terms of the weight: its J block and its rows of mk.
		var jab float64
		var ra, rb []float64
		if s.budget > 0 {
			a, b := bra.I, bra.J
			jab, ra, rb = 2*mj[a*ns+b], mk[a*ns:(a+1)*ns], mk[b*ns:(b+1)*ns]
		}
		for _, ki := range t.Kets[bi] {
			ket := &w.Pairs[ki]
			budget := s.budget
			if budget > 0 {
				c, d := ket.I, ket.J
				wt := 2 * max(jab, 2*mj[c*ns+d], ra[c], ra[d], rb[c], rb[d])
				if bra.Bound*ket.Bound*wt < budget {
					continue
				}
				budget /= wt
			}
			blk := eriBlockPairInto(braPD, w.pairData[ki], s, budget)
			digestQuartet(j, dj, ks, dks, shells, bra.I, bra.J, ket.I, ket.J, blk)
			done++
		}
	}
	return done
}

// blockMaxAbs raises m[a·len(shells)+b] to max |d| over the shell block
// (a, b), for every pair of shells.
func blockMaxAbs(m []float64, shells []Shell, d *linalg.Matrix) {
	ns := len(shells)
	for a := range shells {
		sa := &shells[a]
		for i := sa.Start; i < sa.Start+sa.NumFuncs(); i++ {
			row := d.Data[i*d.Cols : (i+1)*d.Cols]
			for b := range shells {
				sb := &shells[b]
				v := m[a*ns+b]
				for _, x := range row[sb.Start : sb.Start+sb.NumFuncs()] {
					v = max(v, math.Abs(x))
				}
				m[a*ns+b] = v
			}
		}
	}
}

// BuildFock computes F = H + J - K/2 serially from density d, using the
// workload's screened quartet list. It is the reference implementation the
// parallel execution models are validated against.
func (w *FockWorkload) BuildFock(h, d *linalg.Matrix) *linalg.Matrix {
	n := w.Basis.NBF
	j := linalg.NewMatrix(n, n)
	k := linalg.NewMatrix(n, n)
	s := w.NewScratch()
	for i := range w.Tasks {
		w.ExecuteTaskScratch(&w.Tasks[i], d, j, k, s)
	}
	return assembleFock(h, j, k, 0.5)
}

// assembleFock returns F = H + J − kShare·K: kShare is ½ against the
// closed-shell total density and 1 against one spin's density.
func assembleFock(h, j, k *linalg.Matrix, kShare float64) *linalg.Matrix {
	f := h.Clone()
	f.AddScaled(1, j)
	f.AddScaled(-kShare, k)
	// Screening drops tiny asymmetric contributions; restore exact symmetry.
	f.Symmetrize()
	return f
}

// CostImbalance returns max/mean of the task cost estimates, a quick
// measure of how irregular the workload is before any scheduling.
func (w *FockWorkload) CostImbalance() float64 {
	if len(w.Tasks) == 0 {
		return 0
	}
	var sum, max float64
	for _, t := range w.Tasks {
		sum += t.EstFlops
		max = math.Max(max, t.EstFlops)
	}
	mean := sum / float64(len(w.Tasks))
	if mean == 0 {
		return 0
	}
	return max / mean
}
