// Package bench regenerates every table and figure of the evaluation
// (reconstructed from the paper's abstract; see DESIGN.md): workload
// construction, parameter sweeps, model execution and aligned-text table
// rendering. Both cmd/benchsuite and the repository's testing.B benches
// drive this package.
package bench

import (
	"encoding/csv"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"

	"execmodels/internal/chem"
	"execmodels/internal/cluster"
	"execmodels/internal/core"
)

// Table is one rendered experiment: an aligned text table plus notes
// recording the shape the paper reports.
type Table struct {
	ID     string // "F1", "T3", ...
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// FprintCSV renders the table as CSV (header row, data rows; notes as
// trailing '#' comment lines), for machine consumption.
func (t *Table) FprintCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(append([]string{"experiment"}, t.Header...)); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := cw.Write(append([]string{t.ID}, row...)); err != nil {
			return err
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return err
	}
	for _, n := range t.Notes {
		if _, err := fmt.Fprintf(w, "# %s\n", n); err != nil {
			return err
		}
	}
	return nil
}

// Fprint renders the table with aligned columns.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	printRow := func(cells []string) {
		var b strings.Builder
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		fmt.Fprintln(w, strings.TrimRight(b.String(), " "))
	}
	printRow(t.Header)
	for _, row := range t.Rows {
		printRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
	fmt.Fprintln(w)
}

// Suite prepares shared workloads once and runs individual experiments.
type Suite struct {
	Scale string // "small" (seconds, for tests) or "paper" (full sweep)
	Seed  int64

	once  sync.Once
	bs    *chem.BasisSet
	mol   *chem.Molecule
	pairs []chem.ShellPair
	fock  *chem.FockWorkload
	work  *core.Workload
}

// NewSuite returns a Suite at the given scale ("small" or "paper").
func NewSuite(scale string, seed int64) *Suite {
	if scale != "small" && scale != "paper" {
		panic(fmt.Sprintf("bench: unknown scale %q", scale))
	}
	return &Suite{Scale: scale, Seed: seed}
}

// waters returns the water-cluster size for the suite's scale.
func (s *Suite) waters() int {
	if s.Scale == "paper" {
		return 16
	}
	return 4
}

// rankSweep returns the strong-scaling rank counts.
func (s *Suite) rankSweep() []int {
	if s.Scale == "paper" {
		return []int{1, 2, 4, 8, 16, 32, 64}
	}
	return []int{1, 2, 4, 8, 16}
}

// maxRanks returns the largest rank count in the sweep.
func (s *Suite) maxRanks() int {
	sw := s.rankSweep()
	return sw[len(sw)-1]
}

// prepare builds (once) the chemistry workload shared by most
// experiments: a water cluster in STO-3G, screened at 1e-9 and blocked at
// 4 bra pairs per task.
func (s *Suite) prepare() {
	s.once.Do(func() {
		s.mol = chem.WaterCluster(s.waters(), s.Seed)
		bs, err := chem.NewBasis("sto-3g", s.mol)
		if err != nil {
			panic(err)
		}
		s.bs = bs
		s.pairs = chem.SchwarzBounds(bs)
		blockSize := 4
		if s.Scale == "small" {
			// Keep a healthy tasks-per-rank ratio at the small scale's
			// lower pair count.
			blockSize = 2
		}
		s.fock = chem.BuildFockWorkloadFromPairs(bs, s.pairs, 1e-9, blockSize)
		s.work = core.FromFock(s.fock)
	})
}

// machine builds the standard homogeneous quiet machine.
func (s *Suite) machine(ranks int) *cluster.Machine {
	return cluster.New(cluster.Config{Ranks: ranks, Seed: s.Seed})
}

// Experiments lists the available experiment IDs in canonical order.
func Experiments() []string {
	ids := make([]string, 0, len(registry))
	for id := range registry {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// The claims an experiment may back: the six that PAPER.md reconstructs
// from the abstract, numbered as there, and the simulator-for-cluster
// substitution that DESIGN.md depends on.
const (
	claimIrregular    = "1 irregular kernel"
	claimStealing     = "2 stealing ~50% over static"
	claimQuality      = "3 semi-matching ~ hypergraph quality"
	claimPlanCost     = "4 hypergraph is expensive"
	claimGranularity  = "5 granularity vs overheads"
	claimVariability  = "6 variability"
	claimSubstitution = "substitution (simulator vs wall backend)"
)

// experiment is one registry entry: the claim it backs and the run
// function that produces its table.
type experiment struct {
	claim string
	run   func(*Suite) *Table
}

// registry maps experiment IDs to their claims and implementations. An
// experiment that backs no claim does not belong here.
var registry = map[string]experiment{
	"F1": {claimIrregular, (*Suite).Figure1},
	"A2": {claimIrregular, (*Suite).AblationUniformCosts},
	"T1": {claimStealing, (*Suite).Table1},
	"T2": {claimStealing, (*Suite).Table2},
	"F2": {claimStealing, (*Suite).Figure2},
	"T6": {claimStealing, (*Suite).Table6},
	"A3": {claimStealing, (*Suite).AblationStealPolicy},
	"T3": {claimQuality, (*Suite).Table3},
	"A4": {claimQuality, (*Suite).AblationLPT},
	"F8": {claimQuality, (*Suite).Figure8},
	"T4": {claimPlanCost, (*Suite).Table4},
	"T5": {claimPlanCost, (*Suite).Table5},
	"F3": {claimGranularity, (*Suite).Figure3},
	"F5": {claimGranularity, (*Suite).Figure5},
	"A6": {claimGranularity, (*Suite).AblationChunkSize},
	"A7": {claimGranularity, (*Suite).AblationSelfSched},
	"T9": {claimGranularity, (*Suite).Table9},
	"F4": {claimVariability, (*Suite).Figure4},
	"F6": {claimVariability, (*Suite).Figure6},
	"A1": {claimSubstitution, (*Suite).AblationWallVsSim},
}

// Claim returns the claim experiment id backs, or "" for an unknown id.
func Claim(id string) string { return registry[id].claim }

// Known reports whether id names a registered experiment — the fail-fast
// validation cmd/benchsuite applies before running anything.
func Known(id string) bool {
	_, ok := registry[id]
	return ok
}

// Gantt runs the named scheduler (a core.SchedulerByName name) on the
// suite's chemistry workload with tracing enabled and returns a text
// timeline (width characters per rank).
func (s *Suite) Gantt(model string, ranks, width int) (string, error) {
	res, trace, err := s.tracedRun(model, ranks)
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("%s\n%s", res, trace.Gantt(ranks, width)), nil
}

// ChromeTrace runs the named scheduler with tracing and writes the Chrome
// trace-event JSON to w (open it in chrome://tracing or Perfetto).
func (s *Suite) ChromeTrace(w io.Writer, model string, ranks int) error {
	_, trace, err := s.tracedRun(model, ranks)
	if err != nil {
		return err
	}
	return trace.WriteChromeTrace(w)
}

// tracedRun validates the scheduler name and rank count, then runs the
// model with tracing on the suite's workload.
func (s *Suite) tracedRun(sched string, ranks int) (*core.Result, *cluster.Trace, error) {
	if err := checkRanks(ranks); err != nil {
		return nil, nil, err
	}
	opt := core.SchedOptions{Seed: s.Seed}
	if _, err := core.SchedulerByName(sched, opt); err != nil {
		return nil, nil, fmt.Errorf("%w (valid: %s)", err, strings.Join(core.SchedulerNames(), " "))
	}
	s.prepare()
	machine := s.machine(ranks)
	machine.Trace = &cluster.Trace{}
	res := core.Model{Sched: sched, Opt: opt}.Run(s.work, machine)
	return res, machine.Trace, nil
}

// checkRanks refuses rank counts the simulator would silently clamp.
func checkRanks(ranks int) error {
	if ranks < 1 {
		return fmt.Errorf("bench: ranks must be at least 1, got %d", ranks)
	}
	return nil
}

// Run executes the experiment with the given ID.
func (s *Suite) Run(id string) (*Table, error) {
	e, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("bench: unknown experiment %q (have %v)", id, Experiments())
	}
	return e.run(s), nil
}

// All runs every experiment in canonical order.
func (s *Suite) All() []*Table {
	var out []*Table
	for _, id := range Experiments() {
		t, _ := s.Run(id)
		out = append(out, t)
	}
	return out
}

func f(format string, args ...any) string { return fmt.Sprintf(format, args...) }
