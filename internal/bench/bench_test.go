package bench

import (
	"bytes"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// sharedSuite is reused across tests: workload preparation (Schwarz
// screening) dominates per-suite cost.
var sharedSuite = NewSuite("small", 1)

func getCell(t *testing.T, tbl *Table, row, col int) string {
	t.Helper()
	if row >= len(tbl.Rows) || col >= len(tbl.Rows[row]) {
		t.Fatalf("%s: no cell (%d,%d): %+v", tbl.ID, row, col, tbl.Rows)
	}
	return tbl.Rows[row][col]
}

func cellFloat(t *testing.T, tbl *Table, row, col int) float64 {
	t.Helper()
	s := strings.TrimSuffix(getCell(t, tbl, row, col), "x")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("%s: cell (%d,%d) = %q not numeric: %v", tbl.ID, row, col, s, err)
	}
	return v
}

func TestAllExperimentsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("full suite in short mode")
	}
	for _, id := range Experiments() {
		tbl, err := sharedSuite.Run(id)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(tbl.Rows) == 0 {
			t.Errorf("%s: empty table", id)
		}
		for _, row := range tbl.Rows {
			if len(row) != len(tbl.Header) {
				t.Errorf("%s: ragged row %v vs header %v", id, row, tbl.Header)
			}
		}
		var buf bytes.Buffer
		tbl.Fprint(&buf)
		if !strings.Contains(buf.String(), tbl.ID) {
			t.Errorf("%s: rendering lost the ID", id)
		}
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if _, err := sharedSuite.Run("Z9"); err == nil {
		t.Fatal("expected error")
	}
}

func TestNewSuiteBadScalePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewSuite("huge", 1)
}

// Every experiment backs one of the fixed claims: an experiment with no
// claim does not belong in the registry.
func TestEveryExperimentBacksAClaim(t *testing.T) {
	valid := map[string]bool{}
	for _, c := range []string{claimIrregular, claimStealing, claimQuality, claimPlanCost,
		claimGranularity, claimVariability, claimSubstitution} {
		valid[c] = true
	}
	for _, id := range Experiments() {
		if c := Claim(id); !valid[c] {
			t.Errorf("%s: claim %q is not one of the fixed claims", id, c)
		}
	}
	if c := Claim("Z9"); c != "" {
		t.Errorf("unknown experiment has claim %q", c)
	}
}

// T1 (claim 2): stealing at least 1.4x faster than static block.
func TestTable1HeadlineShape(t *testing.T) {
	tbl := sharedSuite.Table1()
	static := cellFloat(t, tbl, 0, 1)
	steal := cellFloat(t, tbl, 1, 1)
	if static < 1.4*steal {
		t.Errorf("stealing %v vs static %v: speedup %.2fx below 1.4x", steal, static, static/steal)
	}
}

// T3 (claim 3): semi-matching within 5% of hypergraph makespan, at a
// cheaper schedule.
func TestTable3Shape(t *testing.T) {
	tbl := sharedSuite.Table3()
	smMk := cellFloat(t, tbl, 1, 1)
	hgMk := cellFloat(t, tbl, 2, 1)
	if smMk > 1.05*hgMk {
		t.Errorf("semi-matching %v more than 5%% above hypergraph %v", smMk, hgMk)
	}
	smCost := cellFloat(t, tbl, 1, 4)
	hgCost := cellFloat(t, tbl, 2, 4)
	if smCost > hgCost {
		t.Errorf("semi-matching schedule cost %v above hypergraph %v", smCost, hgCost)
	}
}

// T4 (claims 3 and 4): on every row semi-matching plans more cheaply
// than hypergraph partitioning, with a makespan within 5% of it; the gap
// is wide at the largest size.
func TestTable4CostGap(t *testing.T) {
	if testing.Short() {
		t.Skip("T4 builds large synthetic workloads")
	}
	tbl := sharedSuite.Table4()
	for row := range tbl.Rows {
		n := getCell(t, tbl, row, 0)
		smCost, hgCost := cellFloat(t, tbl, row, 1), cellFloat(t, tbl, row, 2)
		if smCost >= hgCost {
			t.Errorf("%s tasks: semi-matching plan cost %v not below hypergraph %v", n, smCost, hgCost)
		}
		smMk, hgMk := cellFloat(t, tbl, row, 4), cellFloat(t, tbl, row, 5)
		if smMk > 1.05*hgMk {
			t.Errorf("%s tasks: semi-matching makespan %v more than 5%% above hypergraph %v", n, smMk, hgMk)
		}
	}
	last := len(tbl.Rows) - 1
	ratio := cellFloat(t, tbl, last, 3)
	if ratio < 3 {
		t.Errorf("hypergraph only %vx more expensive at the largest size", ratio)
	}
}

// A1 (substitution claim, which it carries alone): every wall cell is a
// measured time or ratio, and at two or more workers static-block is the
// slowest of the three policies in simulated time, with a visible
// imbalance.
func TestAblationWallVsSimOrdering(t *testing.T) {
	tbl := sharedSuite.AblationWallVsSim()
	if len(tbl.Rows) != 3 {
		t.Fatalf("A1: want 3 rows, got %v", tbl.Rows)
	}
	for row := range tbl.Rows {
		for _, col := range []int{1, 2} {
			if v := cellFloat(t, tbl, row, col); !(v > 0) || math.IsInf(v, 0) {
				t.Errorf("A1 row %d: %s = %v, want a positive finite number", row, tbl.Header[col], v)
			}
		}
	}
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("A1 runs at 1 worker here: the simulated rows are equal there")
	}
	first := tbl.Rows[0][0] // static-block
	static := cellFloat(t, tbl, 0, 3)
	for row := 1; row < len(tbl.Rows); row++ {
		if other := cellFloat(t, tbl, row, 3); static <= other {
			t.Errorf("A1: %s sim makespan %v not above %s's %v", first, static, tbl.Rows[row][0], other)
		}
	}
	if im := cellFloat(t, tbl, 0, 4); im <= 1.1 {
		t.Errorf("A1: %s sim imbalance %v, want > 1.1", first, im)
	}
}

// F1: the workload must be irregular.
func TestFigure1Irregular(t *testing.T) {
	tbl := sharedSuite.Figure1()
	if len(tbl.Notes) == 0 || !strings.Contains(tbl.Notes[0], "max/mean") {
		t.Fatalf("F1 notes missing: %v", tbl.Notes)
	}
}

// F2: every model's makespan must decrease from P=1 to the largest P.
func TestFigure2Scales(t *testing.T) {
	tbl := sharedSuite.Figure2()
	for _, row := range tbl.Rows {
		first, err1 := strconv.ParseFloat(row[1], 64)
		last, err2 := strconv.ParseFloat(row[len(row)-1], 64)
		if err1 != nil || err2 != nil {
			t.Fatalf("bad row %v", row)
		}
		if last >= first {
			t.Errorf("%s does not scale: P=1 %v -> Pmax %v", row[0], first, last)
		}
	}
}

// F3 (claim 5): granularity is a balance. The dynamic counter's fastest
// block size is interior and larger than stealing's, because every task
// costs it a counter round-trip; and every model pays at least 1.5x its
// best time at the largest block.
func TestFigure3InteriorMinimum(t *testing.T) {
	tbl := sharedSuite.Figure3()
	last := len(tbl.Rows) - 1
	best := map[string]int{}
	for col := 2; col < len(tbl.Header); col++ {
		model := tbl.Header[col]
		best[model] = 0
		for row := range tbl.Rows {
			if cellFloat(t, tbl, row, col) < cellFloat(t, tbl, best[model], col) {
				best[model] = row
			}
		}
		if lo, hi := cellFloat(t, tbl, best[model], col), cellFloat(t, tbl, last, col); hi < 1.5*lo {
			t.Errorf("%s: largest-block time %v under 1.5x its minimum %v", model, hi, lo)
		}
	}
	dyn, steal := best["dynamic-counter"], best["work-stealing"]
	if dyn == 0 || dyn == last {
		t.Errorf("dynamic-counter minimum at the edge row %d (block %s)", dyn, getCell(t, tbl, dyn, 0))
	}
	if cellFloat(t, tbl, dyn, 0) <= cellFloat(t, tbl, steal, 0) {
		t.Errorf("dynamic-counter best block %s not above work-stealing's %s",
			getCell(t, tbl, dyn, 0), getCell(t, tbl, steal, 0))
	}
}

// F4: work stealing's slowdown at max heterogeneity must be below
// static-cyclic's. (static-cyclic is the clean comparison: its loads are
// balanced at h=0, so its slowdown is ~1/min-speed. static-block's own
// baseline bottleneck rank confounds its slowdown ratio — that caveat is
// part of the figure's story, not an assertable monotone claim.)
func TestFigure4Shape(t *testing.T) {
	tbl := sharedSuite.Figure4()
	var staticSlow, stealSlow float64
	for _, row := range tbl.Rows {
		v, err := strconv.ParseFloat(row[len(row)-1], 64)
		if err != nil {
			t.Fatal(err)
		}
		switch row[0] {
		case "static-cyclic":
			staticSlow = v
		case "work-stealing":
			stealSlow = v
		}
	}
	if stealSlow >= staticSlow {
		t.Errorf("stealing slowdown %v not below static-cyclic %v", stealSlow, staticSlow)
	}
}

// F5: counter wait must grow with rank count.
func TestFigure5ContentionGrows(t *testing.T) {
	tbl := sharedSuite.Figure5()
	first := cellFloat(t, tbl, 0, 2)
	last := cellFloat(t, tbl, len(tbl.Rows)-1, 2)
	if last <= first {
		t.Errorf("counter wait did not grow: %v -> %v", first, last)
	}
}

// T6: persistence models must improve from their first to their last
// iteration, while static-block stays flat and bad.
func TestTable6Shape(t *testing.T) {
	tbl := sharedSuite.Table6()
	byModel := map[string][]float64{}
	for _, row := range tbl.Rows {
		first, err1 := strconv.ParseFloat(row[2], 64)
		last, err2 := strconv.ParseFloat(row[3], 64)
		if err1 != nil || err2 != nil {
			t.Fatalf("bad row %v", row)
		}
		byModel[row[0]] = []float64{first, last}
	}
	for _, name := range []string{"persistence", "persistence-sm"} {
		v, ok := byModel[name]
		if !ok {
			t.Fatalf("missing %s in T6", name)
		}
		if v[1] >= v[0] {
			t.Errorf("%s did not improve: first %v last %v", name, v[0], v[1])
		}
	}
	sb := byModel["static-block"]
	if sb[1] != sb[0] {
		t.Errorf("static-block should be flat: %v", sb)
	}
	// Persistence final iteration must beat static-block's.
	if byModel["persistence"][1] >= sb[1] {
		t.Errorf("persistence final %v not below static %v", byModel["persistence"][1], sb[1])
	}
}

func TestChromeTraceAPI(t *testing.T) {
	var buf bytes.Buffer
	if err := sharedSuite.ChromeTrace(&buf, "dynamic-counter", 4); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"ph":"X"`) {
		t.Fatalf("not a Chrome trace: %.100s", buf.String())
	}
	if err := sharedSuite.ChromeTrace(&buf, "nope", 4); err == nil {
		t.Fatal("expected error for unknown model")
	}
}

func TestGanttAPI(t *testing.T) {
	out, err := sharedSuite.Gantt("work-stealing", 4, 50)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "rank   0") || !strings.Contains(out, "#") {
		t.Fatalf("gantt output malformed:\n%s", out)
	}
	if _, err := sharedSuite.Gantt("nope", 4, 50); err == nil {
		t.Fatal("expected error for unknown model")
	}
}

// The machine clamps a rank count below 1 to one rank, so a traced run
// or metrics dump at ranks < 1 would paint or label the wrong machine:
// all three entry points must refuse it.
func TestTracedRunsRefuseRanksBelowOne(t *testing.T) {
	for _, ranks := range []int{0, -3} {
		if _, err := sharedSuite.Gantt("work-stealing", ranks, 50); err == nil {
			t.Errorf("Gantt accepted ranks=%d", ranks)
		}
		var buf bytes.Buffer
		if err := sharedSuite.ChromeTrace(&buf, "work-stealing", ranks); err == nil || buf.Len() != 0 {
			t.Errorf("ChromeTrace ranks=%d: err=%v, wrote %d bytes", ranks, err, buf.Len())
		}
		dir := t.TempDir()
		if err := sharedSuite.WriteMetrics(dir, ranks); err == nil {
			t.Errorf("WriteMetrics accepted ranks=%d", ranks)
		}
		if entries, _ := os.ReadDir(dir); len(entries) != 0 {
			t.Errorf("WriteMetrics ranks=%d left %d files behind", ranks, len(entries))
		}
	}
}

func TestTableRendering(t *testing.T) {
	tbl := &Table{
		ID:     "X",
		Title:  "demo",
		Header: []string{"a", "long-header"},
		Rows:   [][]string{{"1", "2"}, {"333", "4"}},
		Notes:  []string{"note"},
	}
	var buf bytes.Buffer
	tbl.Fprint(&buf)
	out := buf.String()
	for _, want := range []string{"== X: demo ==", "long-header", "333", "# note"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestFigureSVGs(t *testing.T) {
	if testing.Short() {
		t.Skip("renders every figure")
	}
	dir := t.TempDir()
	files, err := sharedSuite.FigureSVGs(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 5 {
		t.Fatalf("wrote %d figures: %v", len(files), files)
	}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(data), "<svg") || !strings.Contains(string(data), "polyline") {
			t.Errorf("%s does not look like a chart", f)
		}
	}
}

func TestCSVRendering(t *testing.T) {
	tbl := &Table{
		ID:     "X",
		Header: []string{"a", "b"},
		Rows:   [][]string{{"1", "2"}},
		Notes:  []string{"a note"},
	}
	var buf bytes.Buffer
	if err := tbl.FprintCSV(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"experiment,a,b", "X,1,2", "# a note"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in %q", want, out)
		}
	}
}

func TestExperimentsSorted(t *testing.T) {
	ids := Experiments()
	if len(ids) < 16 {
		t.Fatalf("expected 16 experiments, got %v", ids)
	}
	for i := 1; i < len(ids); i++ {
		if ids[i] <= ids[i-1] {
			t.Fatalf("not sorted: %v", ids)
		}
	}
}
