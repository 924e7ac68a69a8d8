package bench

import (
	"encoding/json"
	"io"
	"runtime"
	"time"

	"execmodels/internal/chem"
	"execmodels/internal/core"
	"execmodels/internal/linalg"
)

// WallBenchRow is one measured configuration of the wall-clock Fock
// backend: a (molecule, mode, workers, pair-block) point of the perf
// trajectory.
type WallBenchRow struct {
	Molecule      string  `json:"molecule"`
	Mode          string  `json:"mode"` // serial-baseline | serial-arena | static | dynamic | stealing | a scheduler-seam policy (-wall-sched)
	Workers       int     `json:"workers"`
	PairBlock     int     `json:"pair_block"` // bra shell-pairs per task
	Tasks         int     `json:"tasks"`
	NsPerTask     float64 `json:"ns_per_task"`
	GFlops        float64 `json:"gflops"`
	AllocsPerTask float64 `json:"allocs_per_task"`
	// Speedup is serial-arena elapsed / this run's elapsed, so the
	// serial-arena row is 1 by construction and the serial-baseline row
	// is < 1 by exactly the arena's hot-path improvement factor.
	Speedup float64 `json:"speedup_vs_serial_arena"`
	// Degenerate marks rows that ran with more workers than the host has
	// CPUs (Workers > NumCPU): their timings measure scheduling overhead
	// under oversubscription, not parallel scaling, and must not be read
	// as speedup points. Machine-checked against NumCPU by the schema
	// test.
	Degenerate bool  `json:"degenerate,omitempty"`
	Steals     int64 `json:"steals,omitempty"`
	StealRetry int64 `json:"steal_retries,omitempty"`
	CounterOps int64 `json:"counter_ops,omitempty"`
}

// WallBenchReport is the machine-readable output of the wall-clock
// benchmark (committed as BENCH_wall.json; regenerate with
// `make bench-wall`).
type WallBenchReport struct {
	// Note is free text about a committed report (e.g. that it pre-dates
	// a kernel change); Suite.WallBench never sets it.
	Note       string `json:"note,omitempty"`
	Scale      string `json:"scale"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"numcpu"`
	Seed       int64  `json:"seed"`
	DynBlock   int    `json:"dyn_block"`
	// Quartets records, per molecule, how much work symmetry folding and
	// Schwarz screening removed before any task reached a scheduler.
	Quartets []WallQuartetStats `json:"quartets"`
	Rows     []WallBenchRow     `json:"rows"`
	// Feedback is the W3 measured-cost feedback experiment (present when
	// the -wall-sched list includes persistence-feedback): repeated
	// (H2O)8 builds comparing estimate-only LPT against the EWMA
	// feedback policy, per iteration.
	Feedback []WallFeedbackRow `json:"feedback,omitempty"`
}

// WallQuartetStats is one molecule's symmetry/screening accounting.
type WallQuartetStats struct {
	Molecule       string `json:"molecule"`
	Shells         int    `json:"shells"`
	NaiveQuartets  int64  `json:"naive_quartets"`  // N^4, the symmetry-free loop
	UniqueQuartets int64  `json:"unique_quartets"` // canonical quartets before screening
	Surviving      int64  `json:"surviving"`       // after Schwarz screening at the bench threshold
}

// wallMolecule is one input of the wall benchmark.
type wallMolecule struct {
	name string
	mol  *chem.Molecule
}

// wallMolecules returns the benchmark inputs: the quickstart molecule
// (water, the hfscf default) and a water cluster sized by scale.
func (s *Suite) wallMolecules() []wallMolecule {
	n := 4
	if s.Scale == "paper" {
		n = 8
	}
	return []wallMolecule{
		{"water", chem.Water()},
		{f("waters:%d", n), chem.WaterCluster(n, s.Seed)},
	}
}

// wallWorkers returns the worker-count sweep, capped at MaxWorkers when
// the caller set one (the CI smoke run uses 2). The sweep intentionally
// extends past NumCPU on small hosts so oversubscription overhead is
// visible — those rows are marked degenerate.
func (s *Suite) wallWorkers() []int {
	sweep := []int{1, 2, 4}
	if s.Scale == "paper" {
		sweep = append(sweep, 8)
	}
	if n := runtime.NumCPU(); n > 4 && s.Scale != "paper" {
		sweep = append(sweep, n)
	}
	if s.MaxWorkers > 0 {
		capped := sweep[:0]
		for _, w := range sweep {
			if w <= s.MaxWorkers {
				capped = append(capped, w)
			}
		}
		sweep = capped
	}
	return sweep
}

// wallDynBlock is the NXTVAL fetch block used by the dynamic rows.
const wallDynBlock = 4

// wallPairBlock is the default bra-pair task granularity; the pair-block
// sweep at the top worker count re-blocks the workload around it.
const wallPairBlock = 4

// wallPairBlocks is the granularity sweep (W2): run at the top worker
// count with tasks of 1, 4 and 16 bra pairs.
func wallPairBlocks() []int { return []int{1, wallPairBlock, 16} }

// serialSweeps runs full serial sweeps over the workload until minTime
// has elapsed (at least once), returning elapsed time, sweep count and
// heap allocations per executed task.
func serialSweeps(fw *chem.FockWorkload, d *linalg.Matrix, baseline bool, minTime time.Duration) (time.Duration, int, float64) {
	n := fw.Basis.NBF
	j := linalg.NewMatrix(n, n)
	k := linalg.NewMatrix(n, n)
	scratch := fw.NewScratch()
	sweep := func() {
		for i := range fw.Tasks {
			if baseline {
				fw.ExecuteTaskBaseline(&fw.Tasks[i], d, j, k)
			} else {
				fw.ExecuteTaskScratch(&fw.Tasks[i], d, j, k, scratch)
			}
		}
	}
	sweep() // warm-up: grow lazily-sized buffers, fault in pair data

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	var elapsed time.Duration
	sweeps := 0
	for elapsed < minTime || sweeps == 0 {
		sweep()
		sweeps++
		elapsed = time.Since(start)
	}
	runtime.ReadMemStats(&after)
	allocs := float64(after.Mallocs-before.Mallocs) / float64(sweeps*len(fw.Tasks))
	return elapsed, sweeps, allocs
}

// wallSchedRun executes one (policy, workers) configuration reps times
// through core.NewWallScheduler and returns the fastest result plus
// allocations per task of the first run. A fresh scheduler per rep keeps
// any persistence state from leaking between repetitions.
func wallSchedRun(policy string, fw *chem.FockWorkload, h, d *linalg.Matrix, workers, block int, seed int64, reps int) (*core.WallResult, float64) {
	run := func() *core.WallResult {
		ws, err := core.NewWallScheduler(policy, workers, core.WallOptions{Seed: seed, Block: block})
		if err != nil {
			panic("bench: " + err.Error())
		}
		res, err := ws.Build(fw, h, d)
		if err != nil {
			panic("bench: " + err.Error())
		}
		return res
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	best := run()
	runtime.ReadMemStats(&after)
	allocs := float64(after.Mallocs-before.Mallocs) / float64(len(fw.Tasks))
	for i := 1; i < reps; i++ {
		if r := run(); r.Elapsed < best.Elapsed {
			best = r
		}
	}
	return best, allocs
}

// wallModes are the three policies every report carries, in the row order
// BENCH_wall.json has always had.
var wallModes = []string{"static", "dynamic", "stealing"}

// wallSchedPolicies returns the policies swept as benchmark rows:
// wallModes, then every entry of WallScheds except persistence-feedback,
// whose iterative protocol is the separate W3 feedback experiment.
func (s *Suite) wallSchedPolicies() []string {
	out := append([]string(nil), wallModes...)
	for _, p := range s.WallScheds {
		if p != "persistence-feedback" {
			out = append(out, p)
		}
	}
	return out
}

// wallFeedbackEnabled reports whether the report should include the W3
// feedback section.
func (s *Suite) wallFeedbackEnabled() bool {
	for _, p := range s.WallScheds {
		if p == "persistence-feedback" {
			return true
		}
	}
	return false
}

// wallParallelRow builds one parallel-mode row against the serial-arena
// reference time.
func wallParallelRow(molecule, mode string, fw *chem.FockWorkload, res *core.WallResult,
	workers, pairBlock int, allocs float64, arenaPerSweep time.Duration, flops float64) WallBenchRow {
	nt := len(fw.Tasks)
	return WallBenchRow{
		Molecule: molecule, Mode: mode, Workers: workers, PairBlock: pairBlock, Tasks: nt,
		NsPerTask:     float64(res.Elapsed.Nanoseconds()) / float64(nt),
		GFlops:        flops / res.Elapsed.Seconds() / 1e9,
		AllocsPerTask: allocs,
		Speedup:       arenaPerSweep.Seconds() / res.Elapsed.Seconds(),
		Degenerate:    workers > runtime.NumCPU(),
		Steals:        res.Steals,
		StealRetry:    res.StealRetry,
		CounterOps:    res.CounterOps,
	}
}

// WallBench measures the wall-clock Fock backend: the retained pre-arena
// serial executor ("before": the reference ERIBlock per quartet, screening
// in the worker loop), the arena serial path ("after"), the parallel
// policies across the worker sweep, and the pair-block granularity
// sweep at the top worker count, on each benchmark molecule.
func (s *Suite) WallBench() *WallBenchReport {
	rep := &WallBenchReport{
		Scale:      s.Scale,
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Seed:       s.Seed,
		DynBlock:   wallDynBlock,
	}
	minTime := 100 * time.Millisecond
	reps := 3
	if s.Scale == "paper" {
		minTime = 300 * time.Millisecond
	}
	workerSweep := s.wallWorkers()
	topWorkers := workerSweep[len(workerSweep)-1]
	for _, wm := range s.wallMolecules() {
		bs, err := chem.NewBasis("sto-3g", wm.mol)
		if err != nil {
			panic(err)
		}
		fw := chem.BuildFockWorkload(bs, 1e-9, wallPairBlock)
		h := chem.CoreHamiltonian(bs, wm.mol)
		d := linalg.Identity(bs.NBF)
		nt := len(fw.Tasks)
		flops := fw.TotalFlops()
		st := fw.Stats()
		rep.Quartets = append(rep.Quartets, WallQuartetStats{
			Molecule: wm.name, Shells: st.Shells,
			NaiveQuartets: st.NaiveQuartets, UniqueQuartets: st.UniqueQuartets,
			Surviving: st.Surviving,
		})

		baseEl, baseSw, baseAllocs := serialSweeps(fw, d, true, minTime)
		arenaEl, arenaSw, arenaAllocs := serialSweeps(fw, d, false, minTime)
		basePerSweep := baseEl / time.Duration(baseSw)
		arenaPerSweep := arenaEl / time.Duration(arenaSw)
		rep.Rows = append(rep.Rows,
			WallBenchRow{
				Molecule: wm.name, Mode: "serial-baseline", Workers: 1, PairBlock: wallPairBlock, Tasks: nt,
				NsPerTask:     float64(basePerSweep.Nanoseconds()) / float64(nt),
				GFlops:        flops / basePerSweep.Seconds() / 1e9,
				AllocsPerTask: baseAllocs,
				Speedup:       arenaPerSweep.Seconds() / basePerSweep.Seconds(),
			},
			WallBenchRow{
				Molecule: wm.name, Mode: "serial-arena", Workers: 1, PairBlock: wallPairBlock, Tasks: nt,
				NsPerTask:     float64(arenaPerSweep.Nanoseconds()) / float64(nt),
				GFlops:        flops / arenaPerSweep.Seconds() / 1e9,
				AllocsPerTask: arenaAllocs,
				Speedup:       1,
			})

		// Every row runs the same core.Scheduler plans the simulator uses,
		// lowered onto the wall backend.
		for _, workers := range workerSweep {
			for _, pol := range s.wallSchedPolicies() {
				res, allocs := wallSchedRun(pol, fw, h, d, workers, wallDynBlock, s.Seed, reps)
				rep.Rows = append(rep.Rows,
					wallParallelRow(wm.name, pol, fw, res, workers, wallPairBlock, allocs, arenaPerSweep, flops))
			}
		}

		// Granularity sweep (W2): same executors at the top worker count,
		// tasks re-blocked around the default size. Reblock shares the
		// screening data and Hermite tables, so this costs only task
		// bookkeeping.
		for _, pb := range wallPairBlocks() {
			if pb == wallPairBlock {
				continue // already measured in the worker sweep
			}
			fwb := fw.Reblock(pb)
			for _, mode := range wallModes {
				res, allocs := wallSchedRun(mode, fwb, h, d, topWorkers, wallDynBlock, s.Seed, reps)
				rep.Rows = append(rep.Rows,
					wallParallelRow(wm.name, mode, fwb, res, topWorkers, pb, allocs, arenaPerSweep, flops))
			}
		}
	}
	if s.wallFeedbackEnabled() {
		rep.Feedback = s.runWallFeedback()
	}
	return rep
}

// WriteWallBench runs WallBench and writes the JSON report to w.
func (s *Suite) WriteWallBench(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s.WallBench())
}

// WallBenchTable (W1) renders the wall benchmark as an aligned table —
// the human-readable view of BENCH_wall.json.
func (s *Suite) WallBenchTable() *Table {
	rep := s.WallBench()
	t := &Table{
		ID:     "W1",
		Title:  f("wall-clock Fock backend, %s scale (GOMAXPROCS=%d, NumCPU=%d)", rep.Scale, rep.GOMAXPROCS, rep.NumCPU),
		Header: []string{"molecule", "mode", "workers", "pairblk", "ns/task", "GFLOP/s", "allocs/task", "speedup", "degenerate"},
	}
	improvement := map[string]float64{}
	nsPerTask := map[string]float64{}
	degenerate := 0
	for _, r := range rep.Rows {
		deg := ""
		if r.Degenerate {
			deg = "yes"
			degenerate++
		}
		t.Rows = append(t.Rows, []string{
			r.Molecule, r.Mode, f("%d", r.Workers), f("%d", r.PairBlock),
			f("%.0f", r.NsPerTask), f("%.3f", r.GFlops),
			f("%.1f", r.AllocsPerTask), f("%.2fx", r.Speedup), deg,
		})
		switch r.Mode {
		case "serial-baseline":
			nsPerTask[r.Molecule] = r.NsPerTask
		case "serial-arena":
			if base := nsPerTask[r.Molecule]; base > 0 && r.NsPerTask > 0 {
				improvement[r.Molecule] = base / r.NsPerTask
			}
		}
	}
	for _, q := range rep.Quartets {
		t.Notes = append(t.Notes,
			f("%s: %d shells, %d naive quartets folded to %d unique, %d surviving Schwarz screening",
				q.Molecule, q.Shells, q.NaiveQuartets, q.UniqueQuartets, q.Surviving))
	}
	for _, wm := range s.wallMolecules() {
		if imp, ok := improvement[wm.name]; ok {
			t.Notes = append(t.Notes,
				f("%s: arena hot path is %.2fx the pre-arena baseline at 1 worker (gate: >= 2x on the quickstart molecule)", wm.name, imp))
		}
	}
	if degenerate > 0 {
		t.Notes = append(t.Notes,
			f("%d rows ran with more workers than the %d available CPUs and are marked degenerate: they measure oversubscription overhead, not scaling", degenerate, rep.NumCPU))
	}
	return t
}
