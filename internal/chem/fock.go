package chem

import (
	"hash/fnv"
	"math"
	"sort"

	"execmodels/internal/linalg"
)

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
// This closure-based form allocates per call; it survives as the
// ExecuteTaskBaseline path, while the hot path uses
// digestUniqueQuartetStrides.
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

// quartetPerms8 is the 8-fold symmetry group in the fixed enumeration
// order the digest relies on.
var quartetPerms8 = [8][4]int{
	{0, 1, 2, 3}, {1, 0, 2, 3}, {0, 1, 3, 2}, {1, 0, 3, 2},
	{2, 3, 0, 1}, {3, 2, 0, 1}, {2, 3, 1, 0}, {3, 2, 1, 0},
}

// quartetPermutationsInto is quartetPermutations without the map and
// slice allocations: distinct permutations are written to out (in the
// same first-occurrence order) and their count returned.
func quartetPermutationsInto(a, b, c, d int, out *[8][4]int) int {
	ids := [4]int{a, b, c, d}
	var keys [8][4]int
	n := 0
	for _, p := range quartetPerms8 {
		key := [4]int{ids[p[0]], ids[p[1]], ids[p[2]], ids[p[3]]}
		dup := false
		for i := 0; i < n; i++ {
			if keys[i] == key {
				dup = true
				break
			}
		}
		if !dup {
			keys[n] = key
			out[n] = p
			n++
		}
	}
	return n
}

// digestJKStrides is digestJK with the permuted block view expressed as
// index strides instead of a closure: element (fa,fb,fc,fd) of the view
// lives at blk[fa*sa+fb*sb+fc*sc+fd*sd]. The loop structure (and hence
// the floating-point accumulation order) is identical to digestJK; only
// the per-element closure dispatch and the kAcc allocation are gone.
//
//hotpath:allocfree
func digestJKStrides(j *linalg.Matrix, dj *linalg.Matrix, ks, dks []*linalg.Matrix, kAcc []float64, a, b, c, dd *Shell, blk []float64, sa, sb, sc, sd int) {
	na, nb, nc, nd := a.NumFuncs(), b.NumFuncs(), c.NumFuncs(), dd.NumFuncs()
	for fa := 0; fa < na; fa++ {
		mu := a.Start + fa
		baseA := fa * sa
		for fb := 0; fb < nb; fb++ {
			nu := b.Start + fb
			baseAB := baseA + fb*sb
			var jAcc float64
			for fc := 0; fc < nc; fc++ {
				lam := c.Start + fc
				for i := range kAcc {
					kAcc[i] = 0
				}
				baseABC := baseAB + fc*sc
				for fd := 0; fd < nd; fd++ {
					sig := dd.Start + fd
					v := blk[baseABC+fd*sd]
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

// digestUniqueQuartetStrides is the allocation-free digestUniqueQuartet:
// permutations are enumerated into a stack array and each permuted view
// is digested through precomputed strides. kAcc is caller-provided
// scratch of length len(ks).
//
//hotpath:allocfree
func digestUniqueQuartetStrides(j, dj *linalg.Matrix, ks, dks []*linalg.Matrix, kAcc []float64, shells []Shell, ia, ib, ic, id int, blk []float64) {
	sh := [4]*Shell{&shells[ia], &shells[ib], &shells[ic], &shells[id]}
	nb, nc, nd := sh[1].NumFuncs(), sh[2].NumFuncs(), sh[3].NumFuncs()
	strides := [4]int{nb * nc * nd, nc * nd, nd, 1}
	var perms [8][4]int
	np := quartetPermutationsInto(ia, ib, ic, id, &perms)
	for pi := 0; pi < np; pi++ {
		p := perms[pi]
		digestJKStrides(j, dj, ks, dks, kAcc, sh[p[0]], sh[p[1]], sh[p[2]], sh[p[3]], blk,
			strides[p[0]], strides[p[1]], strides[p[2]], strides[p[3]])
	}
}

// pairIndex maps a shell pair i <= j to its canonical triangular index.
func pairIndex(i, j int) int { return j*(j+1)/2 + i }

// FockTask is one work unit of the two-electron Fock build: a contiguous
// block of unique bra shell-pairs. Executing the task computes, for every
// bra pair in the block, all surviving unique quartets with ket pair index
// <= bra pair index, and digests them into partial J/K matrices.
//
// Schwarz screening is resolved when the task is generated, not when it
// is executed: Kets holds the exact surviving ket-pair index list per bra
// pair, so workers never evaluate a bound and the task multiset handed to
// a scheduler is already pruned.
type FockTask struct {
	ID         int
	BraPairs   []ShellPair // the bra pairs owned by this task
	PairOffset int         // index of BraPairs[0] within the workload's Pairs
	EstFlops   float64     // cost-model estimate (ERIBlockFlops sum, post-screening)
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

// blockTasks (re)builds the task decomposition at the given bra-pair
// block size, resolving Schwarz screening into each task's explicit
// Kets lists: the executor's quartet multiset is fixed here, at
// generation time, and workers never test a bound.
func (w *FockWorkload) blockTasks(blockSize int) {
	bs, pairs := w.Basis, w.Pairs
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
				t.EstFlops += ERIBlockFlops(
					&bs.Shells[bra.I], &bs.Shells[bra.J],
					&bs.Shells[ket.I], &bs.Shells[ket.J])
			}
			t.Kets[bi-start] = kets[row:len(kets):len(kets)]
		}
		w.Tasks = append(w.Tasks, t)
	}
}

// Reblock returns a workload over the same screened pairs, Schwarz data
// and per-pair Hermite tables, re-decomposed into tasks of blockSize bra
// pairs. Because the expensive screening and pair setup are shared,
// re-blocking costs only the task bookkeeping, which is what the
// granularity differential tests need. The returned workload digests
// exactly the same quartets in the same global bra-major order, so a
// serial sweep over its tasks is bit-identical to one over the
// original's.
func (w *FockWorkload) Reblock(blockSize int) *FockWorkload {
	if blockSize < 1 {
		panic("chem: blockSize must be >= 1")
	}
	nw := &FockWorkload{Basis: w.Basis, Pairs: w.Pairs, Threshold: w.Threshold, pairData: w.pairData}
	nw.blockTasks(blockSize)
	return nw
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
	PrimSurviving    int64 // those a NewScratch evaluates: their Cauchy–Schwarz bound clears the kernel's cut
}

// Stats returns the workload's symmetry/screening accounting. The
// primitive-quartet counts come from the stored primitive factors through
// the kernel's own skip predicate (primQuartetsKept), not from a run.
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
// computed — always exactly the task's NumQuarts, since the quartet
// multiset was resolved at generation time into the Kets lists (each
// unique quartet appears on exactly one task). With a warmed-up arena the
// steady state performs zero heap allocations per task (enforced by a
// testing.AllocsPerRun gate and proved by the allocfree check).
//
//hotpath:allocfree
func (w *FockWorkload) ExecuteTaskScratch(t *FockTask, d, j, k *linalg.Matrix, s *ERIScratch) int {
	s.ks[0], s.dks[0] = k, d
	return w.executeTask(t, d, s.ks[:1], s.dks[:1], j, s)
}

// ExecuteTaskSpinScratch is the unrestricted (UHF) variant: J contracts
// the total density while separate exchange matrices contract the α and
// β densities.
//
//hotpath:allocfree
func (w *FockWorkload) ExecuteTaskSpinScratch(t *FockTask, dTot, dA, dB, j, kA, kB *linalg.Matrix, s *ERIScratch) int {
	s.ks[0], s.ks[1] = kA, kB
	s.dks[0], s.dks[1] = dA, dB
	return w.executeTask(t, dTot, s.ks[:2], s.dks[:2], j, s)
}

// executeTask digests every quartet on the task's pre-screened Kets
// lists. No Schwarz bound is evaluated here — the surviving quartet
// multiset was fixed at task-generation time (blockTasks), so the worker
// loop is pure compute: ERI block, symmetric digest, next.
//
//hotpath:allocfree
func (w *FockWorkload) executeTask(t *FockTask, dj *linalg.Matrix, ks, dks []*linalg.Matrix, j *linalg.Matrix, s *ERIScratch) int {
	shells := w.Basis.Shells
	if cap(s.kAcc) < len(ks) {
		s.kAcc = make([]float64, len(ks)) //lint:ignore allocfree cold start: kAcc is sized once per arena for the K-matrix count and reused by every task
	}
	kAcc := s.kAcc[:len(ks)]
	var done int
	for bi, bra := range t.BraPairs {
		braPD := w.pairData[t.PairOffset+bi]
		for _, ki := range t.Kets[bi] {
			ket := &w.Pairs[ki]
			blk := ERIBlockPairInto(braPD, w.pairData[ki], s)
			digestUniqueQuartetStrides(j, dj, ks, dks, kAcc, shells, bra.I, bra.J, ket.I, ket.J, blk)
			done++
		}
	}
	return done
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
