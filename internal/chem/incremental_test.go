package chem

import (
	"math"
	"testing"

	"execmodels/internal/linalg"
)

// densityRule evaluates the executor's density rule from its statement,
// apart from the executor: of task t's quartets (ab|cd), those with
// Q_ab·Q_cd·w ≥ budget, where w = 2·max(2|D_J|ab, 2|D_J|cd, |D_K|ac,
// |D_K|ad, |D_K|bc, |D_K|bd) over shell blocks and the exchange
// densities, and the primitive quartets the kernel keeps for them at the
// budget divided by w. A zero budget keeps every quartet and primitive.
func densityRule(w *FockWorkload, t *FockTask, dj *linalg.Matrix, dks []*linalg.Matrix, budget float64) (quarts, prims int) {
	shells := w.Basis.Shells
	blockMax := func(d *linalg.Matrix, a, b int) float64 {
		var m float64
		for i := 0; i < shells[a].NumFuncs(); i++ {
			for j := 0; j < shells[b].NumFuncs(); j++ {
				m = math.Max(m, math.Abs(d.At(shells[a].Start+i, shells[b].Start+j)))
			}
		}
		return m
	}
	for bi, bra := range t.BraPairs {
		for _, ki := range t.Kets[bi] {
			ket := w.Pairs[ki]
			cut := budget
			if budget > 0 {
				a, b, c, d := bra.I, bra.J, ket.I, ket.J
				wt := math.Max(2*blockMax(dj, a, b), 2*blockMax(dj, c, d))
				for _, dk := range dks {
					wt = max(wt, blockMax(dk, a, c), blockMax(dk, a, d), blockMax(dk, b, c), blockMax(dk, b, d))
				}
				wt *= 2 // a Fock element takes a J and a K term
				if bra.Bound*ket.Bound*wt < budget {
					continue
				}
				cut = budget / wt
			}
			quarts++
			prims += primQuartetsKept(w.pairData[t.PairOffset+bi], w.pairData[ki], cut)
		}
	}
	return quarts, prims
}

// fockCall is one call of a spin treatment's densities→Fock function:
// the H and densities it was given and the matrices it returned, copied
// before the loop adds its reference Fock matrices to them.
type fockCall struct {
	h      *linalg.Matrix
	ds, fs []*linalg.Matrix
}

// recordFock runs scfLoop with spin's densities→Fock function tapped,
// returning the final state, every call and the first density reported
// to OnIteration after every iteration.
func recordFock(mol *Molecule, bs *BasisSet, spin spinTreatment, opts SCFOptions) (*scfState, []fockCall, []*linalg.Matrix) {
	var calls []fockCall
	var out []*linalg.Matrix
	fock := spin.fock
	spin.fock = func(w *FockWorkload, h *linalg.Matrix, ds []*linalg.Matrix) []*linalg.Matrix {
		fs := fock(w, h, ds)
		c := fockCall{h: h.Clone()}
		for i := range ds {
			c.ds = append(c.ds, ds[i].Clone())
			c.fs = append(c.fs, fs[i].Clone())
		}
		calls = append(calls, c)
		return fs
	}
	opts.OnIteration = func(p SCFProgress) error {
		out = append(out, p.D.Clone())
		return nil
	}
	st, _ := scfLoop(mol, bs, spin, opts, nil)
	return st, calls, out
}

// Every build after the first is incremental, F_k = F_{k−1} +
// G(D_k − D_{k−1}), with quartets skipped by the density they contract.
// The first call gets H and D₁, every later one a zero H and the exact
// density difference, and the accumulated F stays within 1e-11 of an
// exact build at every iteration's input density, and of
// BuildFockBaseline at the last: what the density rule skips does not
// add up over a run. (H2O)4 RHF stays within 2.1e-12, (H2O)2/6-31G UHF
// within 3.4e-12.
func TestIncrementalFockTracksExact(t *testing.T) {
	for _, tc := range []struct {
		name  string
		mol   *Molecule
		basis string
		spin  func(ne int) spinTreatment
		opts  SCFOptions
	}{
		{"rhf-diis/waters4/sto-3g", WaterCluster(4, 7), "sto-3g",
			func(ne int) spinTreatment { return restricted(ne/2, nil) },
			func() SCFOptions { o := SCFOptions{UseDIIS: true}; o.setDefaults(); return o }()},
		{"uhf/waters2/6-31g", WaterCluster(2, 7), "6-31g",
			func(ne int) spinTreatment { return unrestricted(ne/2, ne/2, nil) },
			UHFOptions{MaxIter: 50}.loopOptions()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bs := mustBasis(t, tc.basis, tc.mol)
			h := CoreHamiltonian(bs, tc.mol)
			st, calls, out := recordFock(tc.mol, bs, tc.spin(tc.mol.NumElectrons()), tc.opts)
			if !st.converged || len(calls) != st.iter {
				t.Fatalf("converged %v; %d builds over %d iterations", st.converged, len(calls), st.iter)
			}
			w := st.w
			var ds, fs []*linalg.Matrix
			var in *linalg.Matrix // the loop's first density entering the build
			for k, c := range calls {
				if k == 0 {
					if diff := c.h.MaxAbsDiff(h); diff != 0 {
						t.Fatalf("first build: H differs from the core Hamiltonian by %g", diff)
					}
					ds, fs, in = c.ds, c.fs, c.ds[0]
				} else {
					if diff := c.h.MaxAbsDiff(linalg.NewMatrix(bs.NBF, bs.NBF)); diff != 0 {
						t.Fatalf("build %d: H is not zero (%g)", k+1, diff)
					}
					if diff := c.ds[0].MaxAbsDiff(out[k-1].Clone().AddScaled(-1, in)); diff != 0 {
						t.Fatalf("build %d: density is not D_k − D_{k−1} (off by %g)", k+1, diff)
					}
					in = out[k-1]
					for i := range ds {
						ds[i] = ds[i].Clone().AddScaled(1, c.ds[i])
						fs[i] = c.fs[i].Clone().AddScaled(1, fs[i])
					}
					if diff := ds[0].MaxAbsDiff(in); diff > 1e-13 {
						t.Fatalf("build %d: summed density differs from the loop's by %g", k+1, diff)
					}
				}
				for i, ref := range exactFock(w, h, ds, k == len(calls)-1) {
					if diff := fs[i].MaxAbsDiff(ref); diff > 1e-11 {
						t.Errorf("iteration %d: F[%d] differs from the exact build by %.3g", k+1, i, diff)
					}
				}
			}
			for i := range fs {
				if diff := fs[i].MaxAbsDiff(st.fs[i]); diff != 0 {
					t.Errorf("final F[%d]: summed builds differ from the loop's by %g", i, diff)
				}
			}
		})
	}
}

// exactFock builds every iterated density's Fock matrix without
// skipping anything: through the pre-arena baseline executor
// (BuildFockBaseline and its spin sweep) when baseline is set, and
// otherwise through the arena executor on an exact scratch, which is
// pinned to the baseline at 1e-12 per task and costs a tenth as much.
func exactFock(w *FockWorkload, h *linalg.Matrix, ds []*linalg.Matrix, baseline bool) []*linalg.Matrix {
	n := w.Basis.NBF
	j, kA, kB := linalg.NewMatrix(n, n), linalg.NewMatrix(n, n), linalg.NewMatrix(n, n)
	s := NewERIScratch(w.Basis)
	if len(ds) == 1 {
		if baseline {
			return []*linalg.Matrix{w.BuildFockBaseline(h, ds[0])}
		}
		for i := range w.Tasks {
			w.ExecuteTaskScratch(&w.Tasks[i], ds[0], j, kA, s)
		}
		return []*linalg.Matrix{assembleFock(h, j, kA, 0.5)}
	}
	dTot := ds[0].Clone().AddScaled(1, ds[1])
	for i := range w.Tasks {
		if baseline {
			w.ExecuteTaskSpinBaseline(&w.Tasks[i], dTot, ds[0], ds[1], j, kA, kB)
		} else {
			w.ExecuteTaskSpinScratch(&w.Tasks[i], dTot, ds[0], ds[1], j, kA, kB, s)
		}
	}
	return []*linalg.Matrix{assembleFock(h, j, kA, 1), assembleFock(h, j, kB, 1)}
}

// The incremental builds are pinned by their counts: over a whole run,
// the quartets the executor evaluates (ExecuteTask*'s return) and the
// primitive quartets the kernel keeps for them, as shares of the full
// builds' iterations × Schwarz survivors and iterations ×
// Stats().PrimSurviving, the counts at unit density weight. (H2O)4
// RHF, 9 iterations from the fragment guess, keeps 45 624 of 61 038
// quartets (0.747) and 1 715 095 of 2 466 819 primitive quartets (0.695);
// (H2O)2/6-31G UHF, 16 iterations from the core guess, keeps 70 869 of
// 76 352 (0.928) and 0.849. The counts are of merged sp shells (Shell):
// a merged quartet is kept whole when any of its up to sixteen s/p part
// quartets clears the rule, so the shares rose from 0.740 and 0.684
// (RHF) and 0.922 and 0.844 (UHF) when each s/p pair was two shells,
// and the bands moved up by 0.01 with the same widths. Full builds
// every iteration keep 1 of both; a density weight that ignores the
// density keeps all quartets, and one that skips too much moves the
// pinned energies.
func TestIncrementalQuartetCounts(t *testing.T) {
	// count sees every task of a run: its densities and the executor's
	// return.
	type count func(w *FockWorkload, task *FockTask, dj *linalg.Matrix, dks []*linalg.Matrix, done int)
	rhf := func(mol *Molecule, bs *BasisSet, count count) int {
		var s *ERIScratch
		res, err := RunSCF(mol, bs, SCFOptions{UseDIIS: true}, func(w *FockWorkload, h, d *linalg.Matrix) *linalg.Matrix {
			if s == nil {
				s = w.NewScratch()
			}
			j, k := newMat(bs.NBF), newMat(bs.NBF)
			for i := range w.Tasks {
				count(w, &w.Tasks[i], d, []*linalg.Matrix{d}, w.ExecuteTaskScratch(&w.Tasks[i], d, j, k, s))
			}
			return assembleFock(h, j, k, 0.5)
		})
		if err != nil || !res.Converged {
			t.Fatalf("RunSCF: converged %v, %v", res.Converged, err)
		}
		return res.Iterations
	}
	uhf := func(mol *Molecule, bs *BasisSet, count count) int {
		var s *ERIScratch
		res, err := RunUHF(mol, bs, UHFOptions{MaxIter: 50, Builder: func(w *FockWorkload, dTot, dA, dB *linalg.Matrix) (j, kA, kB *linalg.Matrix) {
			if s == nil {
				s = w.NewScratch()
			}
			j, kA, kB = newMat(bs.NBF), newMat(bs.NBF), newMat(bs.NBF)
			for i := range w.Tasks {
				count(w, &w.Tasks[i], dTot, []*linalg.Matrix{dA, dB}, w.ExecuteTaskSpinScratch(&w.Tasks[i], dTot, dA, dB, j, kA, kB, s))
			}
			return j, kA, kB
		}})
		if err != nil || !res.Converged {
			t.Fatalf("RunUHF: converged %v, %v", res.Converged, err)
		}
		return res.Iterations
	}
	for _, c := range []struct {
		name               string
		mol                *Molecule
		basis              string
		run                func(*Molecule, *BasisSet, count) int
		iters              int
		quartMin, quartMax float64
		primMin, primMax   float64
	}{
		{"rhf/(H2O)4/sto-3g", WaterCluster(4, 7), "sto-3g", rhf, 9, 0.72, 0.78, 0.66, 0.73},
		{"uhf/(H2O)2/6-31g", WaterCluster(2, 7), "6-31g", uhf, 16, 0.90, 0.96, 0.82, 0.89},
	} {
		t.Run(c.name, func(t *testing.T) {
			bs := mustBasis(t, c.basis, c.mol)
			var quarts, prims int64
			iters := c.run(c.mol, bs, func(w *FockWorkload, task *FockTask, dj *linalg.Matrix, dks []*linalg.Matrix, done int) {
				q, p := densityRule(w, task, dj, dks, primBudget(w.Threshold))
				if done != q {
					t.Fatalf("task %d executed %d quartets, the density rule keeps %d", task.ID, done, q)
				}
				quarts += int64(done)
				prims += int64(p)
			})
			if iters != c.iters {
				t.Fatalf("%d iterations, want %d", iters, c.iters)
			}
			st := BuildFockWorkload(bs, 1e-10, 4).Stats()
			qShare := float64(quarts) / float64(int64(iters)*st.Surviving)
			pShare := float64(prims) / float64(int64(iters)*st.PrimSurviving)
			t.Logf("%d iterations: %d of %d quartets (%.3f), %d of %d primitive quartets (%.3f)",
				iters, quarts, int64(iters)*st.Surviving, qShare, prims, int64(iters)*st.PrimSurviving, pShare)
			if qShare < c.quartMin || qShare > c.quartMax {
				t.Errorf("%.3f of the quartets evaluated, want [%g, %g]", qShare, c.quartMin, c.quartMax)
			}
			if pShare < c.primMin || pShare > c.primMax {
				t.Errorf("%.3f of the primitive quartets evaluated, want [%g, %g]", pShare, c.primMin, c.primMax)
			}
		})
	}
}
