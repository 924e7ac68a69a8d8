package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"execmodels/internal/chem"
	"execmodels/internal/core"
	"execmodels/internal/linalg"
)

// Tolerances of the correctness gate (ROADMAP aim 3).
const (
	tolEnergy    = 1e-9  // against a pinned reference or a serial run
	tolFock      = 1e-11 // first parallel Fock matrix against the serial one
	tolUHFvsRHF  = 1e-8  // a UHF singlet against RHF on the same system
	tolAccounted = 0.01  // setup + builds + other against scf_s
)

// scfSetup is what has to exist before the first SCF iteration.
type scfSetup struct {
	bs    *chem.BasisSet
	s, h  *linalg.Matrix
	x     *linalg.Matrix
	w     *chem.FockWorkload
	sched *core.WallScheduler // nil for the serial builder

	oneint, invsqrt, schwarz, taskgen, total float64 // seconds
}

// setUp performs and times the set-up of one calculation: the calls
// RunSCF makes before its first iteration, plus the wall scheduler of
// the two-worker workload.
func setUp(k scfKind, mol *chem.Molecule, seed int64, rec *recorder, req string) (*scfSetup, error) {
	root := rec.begin("setup", req, 0, 0)
	start := time.Now()
	bs, err := chem.NewBasis(k.basis, mol)
	if err != nil {
		return nil, fmt.Errorf("basis: %w", err)
	}
	su := &scfSetup{bs: bs}
	t0 := time.Now()
	su.s = chem.Overlap(bs)
	su.h = chem.CoreHamiltonian(bs, mol)
	t1 := time.Now()
	su.x = linalg.InvSqrtSym(su.s, 1e-10)
	t2 := time.Now()
	pairs := chem.SchwarzBounds(bs)
	t3 := time.Now()
	su.w = chem.BuildFockWorkloadFromPairs(bs, pairs, scfScreening, scfBlockSize)
	t4 := time.Now()
	if k.workers > 1 {
		su.sched, err = core.NewWallScheduler("stealing", k.workers, core.WallOptions{Seed: seed})
		if err != nil {
			return nil, fmt.Errorf("scheduler: %w", err)
		}
		rec.record("core.new_scheduler", req, root, 0, t4, time.Now(), nil)
	}
	su.total = time.Since(start).Seconds()
	rec.record("chem.oneint", req, root, 0, t0, t1, nil)
	rec.record("linalg.invsqrt", req, root, 0, t1, t2, nil)
	rec.record("chem.schwarz", req, root, 0, t2, t3, nil)
	rec.record("chem.taskgen", req, root, 0, t3, t4, nil)
	rec.end(root, nil)
	su.oneint, su.invsqrt = t1.Sub(t0).Seconds(), t2.Sub(t1).Seconds()
	su.schwarz, su.taskgen = t3.Sub(t2).Seconds(), t4.Sub(t3).Seconds()
	return su, nil
}

// warmUp makes one serial Fock build, from a zero density, before
// anything is timed. A whole warm-up calculation would cost a sixth of
// the run and was not seen to change any repeat after it.
func (su *scfSetup) warmUp() {
	su.w.BuildFock(su.h, linalg.NewMatrix(su.bs.NBF, su.bs.NBF))
}

// scfRun is one calculation and what was observed of it from outside.
type scfRun struct {
	seconds    float64 // RunSCF or RunUHF wall time
	job        float64 // NewBasis + seconds: what a user of hfscf waits for
	energy     float64
	iterations int
	converged  bool
	workload   *chem.FockWorkload
	d, f       *linalg.Matrix // RHF: converged density and final Fock matrix
	dA, dB     *linalg.Matrix // UHF: converged spin densities

	obs *buildObserver
}

// buildObserver sits in the FockBuilder seam. It always keeps the first
// build's input and output (the parallel-versus-serial Fock check); with
// a recorder it also times every build and counts its allocations.
type buildObserver struct {
	rec  *recorder
	req  string
	root int
	t0   time.Time

	firstD, firstF *linalg.Matrix
	setupGap       float64 // start of the run to the first build
	builds         sample  // seconds per builder call
	mallocs        sample  // heap objects allocated per builder call
	walls          []*core.WallResult
}

// around brackets one builder call.
func (o *buildObserver) around(d *linalg.Matrix, build func() *linalg.Matrix) *linalg.Matrix {
	first := o.firstD == nil
	if first {
		o.firstD = d.Clone()
	}
	if o.rec == nil {
		f := build()
		if first {
			o.firstF = f.Clone()
		}
		return f
	}
	if first {
		// The time before the first build is RunSCF's own set-up; it
		// cannot be bracketed from outside, so its span is made here.
		now := time.Now()
		o.setupGap = now.Sub(o.t0).Seconds()
		o.rec.record("chem.scf_setup", o.req, o.root, 0, o.t0, now, nil)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	id := o.rec.begin("chem.fock_build", o.req, o.root, 0)
	t := time.Now()
	f := build()
	dt := time.Since(t).Seconds()
	var args map[string]any
	if len(o.walls) > len(o.builds) { // this build went through core
		wr := o.walls[len(o.walls)-1]
		args = map[string]any{"elapsed_s": wr.Elapsed.Seconds(), "imbalance": wr.LoadImbalance(),
			"steals": wr.Steals, "steal_retries": wr.StealRetry}
	}
	o.rec.end(id, args)
	runtime.ReadMemStats(&m1)
	o.builds = append(o.builds, dt)
	o.mallocs = append(o.mallocs, float64(m1.Mallocs-m0.Mallocs))
	if first {
		o.firstF = f.Clone()
	}
	return f
}

// runSCF performs one calculation the way cmd/hfscf does by default:
// RHF with DIIS, UHF with the default damping. sched selects core's wall
// scheduler as the Fock builder; rec switches on the spans.
func runSCF(k scfKind, mol *chem.Molecule, sched *core.WallScheduler, rec *recorder, req string) (*scfRun, error) {
	run := &scfRun{obs: &buildObserver{rec: rec, req: req}}
	o := run.obs
	o.root = rec.begin("scf", req, 0, 0)
	tJob := time.Now()
	bs, err := chem.NewBasis(k.basis, mol)
	if err != nil {
		return nil, fmt.Errorf("basis: %w", err)
	}
	o.t0 = time.Now()
	if k.uhf {
		opts := chem.UHFOptions{MaxIter: scfMaxIter, Screening: scfScreening, BlockSize: scfBlockSize}
		if rec != nil {
			opts.Builder = o.spinBuilder()
		}
		res, err := chem.RunUHF(mol, bs, opts)
		run.seconds = time.Since(o.t0).Seconds()
		if err != nil {
			return nil, fmt.Errorf("RunUHF: %w", err)
		}
		run.energy, run.iterations, run.converged = res.Energy, res.Iterations, res.Converged
		run.workload, run.dA, run.dB = res.Workload, res.DA, res.DB
	} else {
		// The serial end-to-end run passes no builder at all, exactly as
		// cmd/hfscf does; any other run goes through the observer.
		var build chem.FockBuilder
		switch {
		case sched != nil:
			build = func(w *chem.FockWorkload, h, d *linalg.Matrix) *linalg.Matrix {
				return o.around(d, func() *linalg.Matrix {
					wr, err := sched.Build(w, h, d)
					if err != nil {
						// NewWallScheduler validated the plan at set-up.
						panic(err)
					}
					o.walls = append(o.walls, wr)
					return wr.F
				})
			}
		case rec != nil:
			build = func(w *chem.FockWorkload, h, d *linalg.Matrix) *linalg.Matrix {
				return o.around(d, func() *linalg.Matrix { return w.BuildFock(h, d) })
			}
		}
		res, err := chem.RunSCF(mol, bs, chem.SCFOptions{
			MaxIter: scfMaxIter, Screening: scfScreening, BlockSize: scfBlockSize, UseDIIS: true,
		}, build)
		run.seconds = time.Since(o.t0).Seconds()
		if err != nil {
			return nil, fmt.Errorf("RunSCF: %w", err)
		}
		run.energy, run.iterations, run.converged = res.Energy, res.Iterations, res.Converged
		run.workload, run.d, run.f = res.Workload, res.D, res.F
	}
	run.job = time.Since(tJob).Seconds()
	rec.end(o.root, map[string]any{"iterations": run.iterations, "energy": run.energy})
	return run, nil
}

// spinBuilder is RunUHF's own serial J/Kα/Kβ sweep, moved behind the
// UHFFockBuilder seam so that the traced run can bracket it.
func (o *buildObserver) spinBuilder() chem.UHFFockBuilder {
	var scratch *chem.ERIScratch
	return func(w *chem.FockWorkload, dTot, dA, dB *linalg.Matrix) (j, kA, kB *linalg.Matrix) {
		if scratch == nil {
			scratch = w.NewScratch()
		}
		o.around(dTot, func() *linalg.Matrix {
			n := w.Basis.NBF
			j, kA, kB = linalg.NewMatrix(n, n), linalg.NewMatrix(n, n), linalg.NewMatrix(n, n)
			for i := range w.Tasks {
				w.ExecuteTaskSpinScratch(&w.Tasks[i], dTot, dA, dB, j, kA, kB, scratch)
			}
			return j
		})
		return j, kA, kB
	}
}

// check counts one calculation as attempted and, if it did not converge
// or missed its reference energy, as failed.
func (r *workloadResult) checkRun(what string, run *scfRun, ref float64, tol float64) {
	r.Attempted++
	switch {
	case !run.converged:
		r.fail("%s: not converged after %d iterations", what, run.iterations)
	case ref != 0 && !(math.Abs(run.energy-ref) <= tol):
		r.fail("%s: energy %.10f differs from %.10f by %.2e (tolerance %.0e)", what, run.energy, ref, run.energy-ref, tol)
	}
}

// checkFirstFock compares a parallel run's first Fock matrix with a
// serial build from the same density.
func (r *workloadResult) checkFirstFock(run *scfRun, su *scfSetup) {
	r.Attempted++
	if run.obs.firstD == nil {
		r.fail("first Fock matrix: the builder was never called")
		return
	}
	serial := su.w.BuildFock(su.h, run.obs.firstD)
	if diff := serial.MaxAbsDiff(run.obs.firstF); !(diff <= tolFock) {
		r.fail("first Fock matrix: parallel differs from serial by %.2e (tolerance %.0e)", diff, tolFock)
	}
}

// checkUHFAgainstRHF runs RHF on the system of a UHF singlet run and
// requires the two energies to agree: the guard on the two SCF loops.
func (r *workloadResult) checkUHFAgainstRHF(k scfKind, mol *chem.Molecule, uhf *scfRun) error {
	k.uhf = false
	rhf, err := runSCF(k, mol, nil, nil, "")
	if err != nil {
		return err
	}
	r.checkRun("RHF on the UHF system", rhf, k.ref, tolEnergy)
	r.checkRun("UHF singlet against RHF", uhf, rhf.energy, tolUHFvsRHF)
	return nil
}

func requireCPUs(k scfKind) error {
	if k.workers > runtime.NumCPU() {
		return fmt.Errorf("%w: %s needs %d workers and this host has %d CPU(s); only workers <= NumCPU rows may be reported",
			errSkipped, k.name, k.workers, runtime.NumCPU())
	}
	return nil
}

// scfEndToEnd is the untraced run of an SCF workload: setup_s from
// repeated set-ups, then timed calculations until the window closes.
func scfEndToEnd(k scfKind, cfg runConfig) (*workloadResult, error) {
	if err := requireCPUs(k); err != nil {
		return nil, err
	}
	res := &workloadResult{Workload: k.name, Seed: cfg.seed}
	mol := cluster(k.waters, cfg.seed)

	// Set-ups are timed in batches before each repeat rather than all at
	// once, so that their median spans the run the way the repeats do.
	batch := (cfg.sz.setupRepeats + cfg.sz.minRepeats - 1) / cfg.sz.minRepeats
	var setups, scf, jobs, iters sample
	var su *scfSetup
	start := time.Now()
	// Stop at the repeat whose end falls nearest the window's.
	for len(scf) < cfg.sz.minRepeats || time.Since(start).Seconds()+scf.median()/2 < cfg.window.Seconds() {
		for i := 0; i < batch; i++ {
			var err error
			if su, err = setUp(k, mol, cfg.seed, nil, ""); err != nil {
				return nil, err
			}
			setups = append(setups, su.total)
		}
		if len(scf) == 0 {
			res.note("%s / %s: %d atoms, %d shells, %d basis functions, %d tasks, %d surviving quartets",
				mol.Name, k.basis, len(mol.Atoms), len(su.bs.Shells), su.bs.NBF, len(su.w.Tasks), su.w.Stats().Surviving)
			su.warmUp()
		}
		runtime.GC()
		run, err := runSCF(k, mol, su.sched, nil, "")
		if err != nil {
			return nil, err
		}
		scf, jobs = append(scf, run.seconds), append(jobs, run.job)
		iters = append(iters, float64(run.iterations))
		res.checkRun(fmt.Sprintf("repeat %d", len(scf)), run, k.ref, tolEnergy)
		if len(scf) == 1 {
			if su.sched != nil {
				res.checkFirstFock(run, su)
			}
			if k.uhf {
				if err := res.checkUHFAgainstRHF(k, mol, run); err != nil {
					return nil, err
				}
			}
		}
	}
	res.Repeats = len(scf)
	res.OutlierShare = scf.outlierShare()
	res.note("iterations per repeat: %.0f (min %.0f, max %.0f)", iters.median(), iters.quantile(0), iters.quantile(1))
	res.add(
		fromSample("scf_s", "s", scf),
		fromSample("setup_s", "s", setups),
		exact("jobs_per_s", "1/s", float64(len(jobs))/jobs.sum()),
		scaled("latency_p50_ms", "ms", jobs, 1e3),
		exact("latency_p95_ms", "ms", 1e3*jobs.tail()),
	)
	return res, nil
}
