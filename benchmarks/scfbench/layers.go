package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"execmodels/internal/chem"
	"execmodels/internal/core"
	"execmodels/internal/deque"
	"execmodels/internal/linalg"
)

// perLayer lists every per-layer metric with its unit, in the order of
// BENCHMARK.json. A traced run reports all of them: the ones whose layer
// does no work on the workload are reported as 0 and marked off-path.
var perLayer = []struct{ name, unit string }{
	{"chem.oneint_s", "s"}, {"chem.schwarz_s", "s"}, {"chem.taskgen_s", "s"},
	{"chem.quartets_unique", "count"}, {"chem.quartets_surviving", "count"},
	{"chem.tasks", "count"}, {"chem.scf_iterations", "count"},
	{"chem.eri_us_per_quartet", "us"}, {"chem.fock_us_per_quartet", "us"}, {"chem.digest_share", "share"},
	{"chem.boys_ns", "ns"}, {"chem.eri_block_us.ssss", "us"}, {"chem.eri_block_us.pppp", "us"},
	{"chem.fock_build_s", "s"}, {"chem.fock_share", "share"}, {"chem.scf_other_s", "s"},
	{"chem.alloc_mb_per_scf", "MB"}, {"chem.allocs_per_build", "count"},
	{"linalg.eigensym_ms", "ms"}, {"linalg.invsqrt_ms", "ms"}, {"linalg.diag_share", "share"},
	{"core.fock_elapsed_s", "s"}, {"core.worker_busy_s", "s"}, {"core.utilization", "share"},
	{"core.imbalance", "ratio"}, {"core.steals", "count"}, {"core.steal_retries", "count"},
	{"core.speedup_vs_serial", "ratio"}, {"core.static_scf_s", "s"}, {"core.static_imbalance", "ratio"},
	{"core.semimatching_scf_s", "s"},
	{"semimatching.plan_ms", "ms"}, {"hypergraph.plan_ms", "ms"}, {"core.lpt_plan_ms", "ms"},
	{"semimatching.max_over_mean", "ratio"}, {"hypergraph.max_over_mean", "ratio"},
	{"deque.steal_half_ns", "ns"}, {"deque.push_pop_ns", "ns"},
	{"serve.submit_ms_p50", "ms"}, {"serve.queue_wait_ms_p50", "ms"},
	{"serve.run_ms_p50.h2", "ms"}, {"serve.run_ms_p50.water", "ms"}, {"serve.overhead_ms.water", "ms"},
	{"serve.decode_us", "us"}, {"serve.save_checkpoint_us", "us"}, {"serve.save_result_us", "us"},
	{"serve.spool_bytes_per_job", "bytes"}, {"serve.rejected", "count"}, {"serve.metrics_scrape_ms", "ms"},
	{"trace.overhead_share", "share"},
}

// layerSet collects a traced run's metrics by name.
type layerSet map[string]metric

func (ls layerSet) put(m ...metric) {
	for _, x := range m {
		ls[x.Name] = x
	}
}

// into appends every per-layer metric to res in the fixed order.
func (ls layerSet) into(res *workloadResult) {
	for _, pl := range perLayer {
		m, ok := ls[pl.name]
		if !ok {
			m = metric{Name: pl.name, Unit: pl.unit, OffPath: true}
		}
		if m.Unit != pl.unit {
			panic(fmt.Sprintf("metric %s reported in %s, declared in %s", pl.name, m.Unit, pl.unit))
		}
		res.add(m)
	}
}

// sink keeps the compiler from discarding a probe's result.
var sink float64

// chemProbes measures the chemistry layers at a converged state: the
// bare ERI sweep, the same sweep with the J/K digest, and the Boys and
// block kernels. dA and dB are nil for a closed-shell state.
func chemProbes(ls layerSet, su *scfSetup, d, dA, dB *linalg.Matrix, reps int) {
	w, bs := su.w, su.bs
	st := w.Stats()
	ls.put(
		exact("chem.quartets_unique", "count", float64(st.UniqueQuartets)),
		exact("chem.quartets_surviving", "count", float64(st.Surviving)),
		exact("chem.tasks", "count", float64(len(w.Tasks))),
	)

	// The workload's own pair tables are private; the sweep builds its
	// own, aligned with w.Pairs the same way.
	pd := make([]*chem.PairData, len(w.Pairs))
	for i, p := range w.Pairs {
		pd[i] = chem.NewPairData(&bs.Shells[p.I], &bs.Shells[p.J])
	}
	scratch := w.NewScratch()
	// A timed call sweeps all tasks, as often as it takes to cover a few
	// thousand quartets: a lone water has 120.
	rounds := 1 + 4000/int(st.Surviving)
	perQuartet := 1e6 / float64(rounds*int(st.Surviving))
	acc := w.NewJKAccum(dB != nil)
	dkA := d
	if dB != nil {
		dkA = dA
	}
	// The two sweeps alternate, so that a drift of the host's speed
	// falls on both and not into their ratio.
	var eri, fock sample
	for i := 0; i < reps; i++ {
		eri = append(eri, timeCalls(1, func() {
			for r := 0; r < rounds; r++ {
				for ti := range w.Tasks {
					t := &w.Tasks[ti]
					for bi := range t.BraPairs {
						bra := pd[t.PairOffset+bi]
						for _, ki := range t.Kets[bi] {
							sink += chem.ERIBlockPairInto(bra, pd[ki], scratch)[0]
						}
					}
				}
			}
		})...)
		fock = append(fock, timeCalls(1, func() {
			for r := 0; r < rounds; r++ {
				for ti := range w.Tasks {
					w.ExecuteTaskAccum(&w.Tasks[ti], d, dkA, dB, acc)
				}
			}
		})...)
	}
	ls.put(
		scaled("chem.eri_us_per_quartet", "us", eri, perQuartet),
		scaled("chem.fock_us_per_quartet", "us", fock, perQuartet),
		exact("chem.digest_share", "share", 1-eri.median()/fock.median()),
	)

	// Boys(8, x) over a grid that covers the zero, series and asymptotic
	// branches.
	const boysPoints, boysRounds = 800, 100
	var out [9]float64
	boys := timeCalls(2*reps+1, func() {
		for r := 0; r < boysRounds; r++ {
			for i := 0; i < boysPoints; i++ {
				chem.Boys(8, 0.05*float64(i), out[:])
				sink += out[8]
			}
		}
	})
	ls.put(scaled("chem.boys_ns", "ns", boys, 1e9/(boysPoints*boysRounds)))

	for _, class := range []struct {
		name   string
		l      int
		rounds int
	}{{"chem.eri_block_us.ssss", 0, 200}, {"chem.eri_block_us.pppp", 1, 40}} {
		pair := classPair(bs, class.l)
		if pair == nil {
			continue
		}
		s := timeCalls(2*reps+1, func() {
			for r := 0; r < class.rounds; r++ {
				sink += chem.ERIBlockPairInto(pair, pair, scratch)[0]
			}
		})
		ls.put(scaled(class.name, "us", s, 1e6/float64(class.rounds)))
	}
}

// classPair picks the shell pair behind an (ll|ll) block probe: the
// first shells of angular momentum l on two different atoms, or twice
// the same shell when only one atom carries one (a lone water's 2p).
func classPair(bs *chem.BasisSet, l int) *chem.PairData {
	var a, b *chem.Shell
	for i := range bs.Shells {
		sh := &bs.Shells[i]
		switch {
		case sh.L != l:
		case a == nil:
			a = sh
		case b == nil && sh.Atom != a.Atom:
			b = sh
		}
	}
	if a == nil {
		return nil
	}
	if b == nil {
		b = a
	}
	return chem.NewPairData(a, b)
}

// linalgProbes times the two dense kernels on the converged run's own
// matrices: the eigensolver on XᵀFX and the inverse square root on S.
// diagCalls is the number of diagonalizations the run made.
func linalgProbes(ls layerSet, su *scfSetup, f *linalg.Matrix, diagCalls int, scfSeconds float64, reps int) {
	fx := linalg.TripleProduct(su.x, f)
	eig := timeCalls(4*reps+1, func() {
		vals, _ := linalg.EigenSym(fx)
		sink += vals[0]
	})
	inv := timeCalls(4*reps+1, func() { sink += linalg.InvSqrtSym(su.s, 1e-10).Data[0] })
	ls.put(
		scaled("linalg.eigensym_ms", "ms", eig, 1e3),
		scaled("linalg.invsqrt_ms", "ms", inv, 1e3),
		exact("linalg.diag_share", "share", eig.median()*float64(diagCalls)/scfSeconds),
	)
}

// fockFromSpin assembles Fα from a converged UHF state, for the
// eigensolver probe.
func fockFromSpin(su *scfSetup, dA, dB *linalg.Matrix) *linalg.Matrix {
	n := su.bs.NBF
	dTot := dA.Clone()
	dTot.AddScaled(1, dB)
	acc := su.w.NewJKAccum(true)
	for i := range su.w.Tasks {
		su.w.ExecuteTaskAccum(&su.w.Tasks[i], dTot, dA, dB, acc)
	}
	f := linalg.NewMatrix(n, n)
	f.CopyFrom(su.h)
	f.AddScaled(1, acc.J)
	f.AddScaled(-1, acc.KA)
	f.Symmetrize()
	return f
}

// plannerProbes times Scheduler.Plan of the paper's two partitioners and
// of LPT on one fixed task set — the Fock tasks of a larger cluster at
// bra-pair block 1 — and reports the load ratio of the plans.
func plannerProbes(ls layerSet, cfg runConfig) error {
	mol := cluster(cfg.sz.planWaters, cfg.seed)
	bs, err := chem.NewBasis("sto-3g", mol)
	if err != nil {
		return fmt.Errorf("planner probe basis: %w", err)
	}
	ts := core.FockTaskSet(chem.BuildFockWorkload(bs, scfScreening, 1))
	for _, p := range []struct{ sched, timeName, loadName string }{
		{"semimatching", "semimatching.plan_ms", "semimatching.max_over_mean"},
		{"hypergraph", "hypergraph.plan_ms", "hypergraph.max_over_mean"},
		{"lpt", "core.lpt_plan_ms", ""},
	} {
		sched, err := core.SchedulerByName(p.sched, core.SchedOptions{Seed: cfg.seed})
		if err != nil {
			return fmt.Errorf("planner probe: %w", err)
		}
		var plan *core.Plan
		s := timeCalls(cfg.sz.probeRepeats, func() { plan = sched.Plan(ts, cfg.sz.planRanks) })
		ls.put(scaled(p.timeName, "ms", s, 1e3))
		if p.loadName != "" {
			ls.put(exact(p.loadName, "ratio", maxOverMean(plan.Assign, ts.Costs, cfg.sz.planRanks)))
		}
	}
	return nil
}

func maxOverMean(assign []int, costs []float64, ranks int) float64 {
	load := make([]float64, ranks)
	var total float64
	for i, r := range assign {
		load[r] += costs[i]
		total += costs[i]
	}
	var mx float64
	for _, l := range load {
		mx = math.Max(mx, l)
	}
	return mx / (total / float64(ranks))
}

// dequeProbes times the two deque operations a stealing build makes.
func dequeProbes(ls layerSet, reps int) {
	const pairs = 200000
	var d deque.Deque
	pp := timeCalls(2*reps+1, func() {
		for i := 0; i < pairs; i++ {
			d.Push(i)
			v, _ := d.Pop()
			sink += float64(v)
		}
	})
	ls.put(scaled("deque.push_pop_ns", "ns", pp, 1e9/pairs))

	const fill, rounds = 1024, 2000
	ids := make([]int, fill)
	var steals int
	sh := timeCalls(2*reps+1, func() {
		steals = 0
		for r := 0; r < rounds; r++ {
			var q deque.Deque
			q.PushBatch(ids)
			for got := q.StealHalf(); got != nil; got = q.StealHalf() {
				steals++
			}
		}
	})
	// The refill is one PushBatch per eleven steals and stays in the
	// figure; it is the same on both sides of any comparison.
	ls.put(scaled("deque.steal_half_ns", "ns", sh, 1e9/float64(steals)))
}

// scfTraced is the traced run of an SCF workload: one calculation with
// tracing off, the same one again under spans, and the probes of every
// layer on its path.
func scfTraced(k scfKind, cfg runConfig, rec *recorder) (*workloadResult, error) {
	if err := requireCPUs(k); err != nil {
		return nil, err
	}
	res := &workloadResult{Workload: k.name, Seed: cfg.seed, Traced: true, Repeats: 1}
	ls := layerSet{}
	mol := cluster(k.waters, cfg.seed)
	su, traced, err := chemLayers(ls, res, k, cfg, mol, rec)
	if err != nil {
		return nil, err
	}
	if su.sched != nil {
		if err := coreLayers(ls, res, k, cfg, mol, su, traced, rec); err != nil {
			return nil, err
		}
	}
	if k.uhf {
		if err := res.checkUHFAgainstRHF(k, mol, traced); err != nil {
			return nil, err
		}
	}
	ls.into(res)
	return res, nil
}

// chemLayers runs one calculation on mol with tracing off and once more
// under spans, checks that the spans account for the traced time, and
// fills in the chem, linalg and trace metrics.
func chemLayers(ls layerSet, res *workloadResult, k scfKind, cfg runConfig, mol *chem.Molecule, rec *recorder) (*scfSetup, *scfRun, error) {
	var oneint, schwarz, taskgen sample
	var su *scfSetup
	for i := 0; i < cfg.sz.probeRepeats; i++ {
		var err error
		if su, err = setUp(k, mol, cfg.seed, rec, fmt.Sprintf("%s/setup-%d", k.name, i)); err != nil {
			return nil, nil, err
		}
		oneint, schwarz, taskgen = append(oneint, su.oneint), append(schwarz, su.schwarz), append(taskgen, su.taskgen)
	}
	ls.put(fromSample("chem.oneint_s", "s", oneint), fromSample("chem.schwarz_s", "s", schwarz), fromSample("chem.taskgen_s", "s", taskgen))
	res.note("%s / %s: %d atoms, %d shells, %d basis functions", mol.Name, k.basis, len(mol.Atoms), len(su.bs.Shells), su.bs.NBF)

	su.warmUp()
	runtime.GC()
	plain, err := runSCF(k, mol, su.sched, nil, "")
	if err != nil {
		return nil, nil, err
	}
	res.checkRun("untraced repeat", plain, k.ref, tolEnergy)

	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	traced, err := runSCF(k, mol, su.sched, rec, k.name+"/traced")
	if err != nil {
		return nil, nil, err
	}
	runtime.ReadMemStats(&m1)
	res.checkRun("traced repeat", traced, k.ref, tolEnergy)
	o := traced.obs

	// The spans under the run's root tile it: RunSCF's set-up, then the
	// builds; what they leave uncovered is the root's self time — DIIS,
	// diagonalization, density and energy.
	other := selfTimes(rec.snapshot())[o.root].Seconds()
	accounted := o.setupGap + o.builds.sum() + other
	res.Attempted++
	if math.Abs(accounted-traced.seconds) > tolAccounted*traced.seconds {
		res.fail("layer times account for %.4fs of scf_s %.4fs", accounted, traced.seconds)
	}
	res.note("traced scf_s %.4f = RunSCF set-up %.4f + builds %.4f + other %.4f (untraced %.4f; stand-alone set-up %.4f)",
		traced.seconds, o.setupGap, o.builds.sum(), other, plain.seconds, su.total)
	ls.put(
		exact("chem.scf_iterations", "count", float64(traced.iterations)),
		fromSample("chem.fock_build_s", "s", o.builds),
		exact("chem.fock_share", "share", o.builds.sum()/traced.seconds),
		exact("chem.scf_other_s", "s", other),
		exact("chem.alloc_mb_per_scf", "MB", float64(m1.TotalAlloc-m0.TotalAlloc)/1e6),
		fromSample("chem.allocs_per_build", "count", o.mallocs),
		exact("trace.overhead_share", "share", traced.seconds/plain.seconds-1),
	)

	d, f, diagCalls := traced.d, traced.f, traced.iterations+1
	if k.uhf {
		d = traced.dA.Clone()
		d.AddScaled(1, traced.dB)
		f = fockFromSpin(su, traced.dA, traced.dB)
		diagCalls *= 2
	}
	chemProbes(ls, su, d, traced.dA, traced.dB, cfg.sz.probeRepeats)
	linalgProbes(ls, su, f, diagCalls, traced.seconds, cfg.sz.probeRepeats)
	return su, traced, nil
}

// coreLayers fills in core's metrics from the traced two-worker run and
// adds what the paper's comparison needs beside it: a serial run of the
// same calculation, and one run each under the static-block and the
// semi-matching schedule.
func coreLayers(ls layerSet, res *workloadResult, k scfKind, cfg runConfig, mol *chem.Molecule,
	su *scfSetup, traced *scfRun, rec *recorder) error {
	serialKind := k
	serialKind.workers = 1
	serial, err := runSCF(serialKind, mol, nil, rec, k.name+"/serial-ref")
	if err != nil {
		return err
	}
	res.checkRun("serial reference", serial, k.ref, tolEnergy)
	res.checkRun("two workers against the serial run", traced, serial.energy, tolEnergy)
	res.checkFirstFock(traced, su)

	elapsed, busy, imbalance := wallSamples(traced.obs.walls)
	var steals, retries float64
	for _, wr := range traced.obs.walls {
		steals += float64(wr.Steals)
		retries += float64(wr.StealRetry)
	}
	ls.put(
		fromSample("core.fock_elapsed_s", "s", elapsed),
		fromSample("core.worker_busy_s", "s", busy),
		exact("core.utilization", "share", busy.sum()/(float64(k.workers)*elapsed.sum())),
		fromSample("core.imbalance", "ratio", imbalance),
		exact("core.steals", "count", steals),
		exact("core.steal_retries", "count", retries),
		exact("core.speedup_vs_serial", "ratio", serial.obs.builds.median()/traced.obs.builds.median()),
	)

	for _, p := range []struct{ sched, name string }{{"static-block", "core.static_scf_s"}, {"semimatching", "core.semimatching_scf_s"}} {
		ws, err := core.NewWallScheduler(p.sched, k.workers, core.WallOptions{Seed: cfg.seed})
		if err != nil {
			return fmt.Errorf("%s scheduler: %w", p.sched, err)
		}
		runtime.GC()
		run, err := runSCF(k, mol, ws, rec, k.name+"/"+p.sched)
		if err != nil {
			return err
		}
		res.checkRun(p.sched+" schedule against the serial run", run, serial.energy, tolEnergy)
		ls.put(exact(p.name, "s", run.seconds))
		if p.sched == "static-block" {
			_, _, imb := wallSamples(run.obs.walls)
			ls.put(fromSample("core.static_imbalance", "ratio", imb))
		}
	}
	if err := plannerProbes(ls, cfg); err != nil {
		return err
	}
	dequeProbes(ls, cfg.sz.probeRepeats)
	return nil
}

// wallSamples turns a run's WallResults into per-build samples: elapsed
// seconds, busy seconds summed over the workers, and max/mean busy.
func wallSamples(walls []*core.WallResult) (elapsed, busy, imbalance sample) {
	for _, wr := range walls {
		var b time.Duration
		for _, wb := range wr.WorkerBusy {
			b += wb
		}
		elapsed = append(elapsed, wr.Elapsed.Seconds())
		busy = append(busy, b.Seconds())
		imbalance = append(imbalance, wr.LoadImbalance())
	}
	return elapsed, busy, imbalance
}
