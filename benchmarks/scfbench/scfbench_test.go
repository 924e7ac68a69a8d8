package main

import (
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"testing"
	"time"

	"execmodels/internal/lint"
)

const repoRoot = "../.."

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func loadManifest(t *testing.T) *manifest {
	t.Helper()
	man, err := readManifest(filepath.Join(repoRoot, manifestPath))
	if err != nil {
		t.Fatal(err)
	}
	return man
}

// TestManifestMatchesProgram pins BENCHMARK.json to the tables the
// program reports from, so neither can drift alone.
func TestManifestMatchesProgram(t *testing.T) {
	man := loadManifest(t)
	if man.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, the program's default window is %d", man.RunSeconds, defaultSeconds)
	}
	if len(man.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads in the manifest, %d in the program", len(man.Workloads), len(workloadNames))
	}
	for i, w := range man.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d is %q in the manifest, %q in the program", i, w.Name, workloadNames[i])
		}
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	if len(man.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in the manifest, %d in the program", len(man.PerLayer), len(perLayer))
	}
	for i, m := range man.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per-layer metric %d is %s [%s] in the manifest, %s [%s] in the program",
				i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
	seen := map[string]bool{}
	var hasSetup bool
	for _, m := range append(append([]manifestMetric{}, man.EndToEnd...), man.PerLayer...) {
		if !nameRE.MatchString(m.Name) {
			t.Errorf("metric name %q is outside [A-Za-z0-9_.-]", m.Name)
		}
		if seen[m.Name] {
			t.Errorf("metric %s is listed twice", m.Name)
		}
		seen[m.Name] = true
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %s: better is %q", m.Name, m.Better)
		}
	}
	for _, m := range man.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %s: bound %g", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s among the end-to-end metrics")
	}
}

// TestEveryWorkloadReportsEveryMetric runs each workload at the test's
// sizes, untraced and traced, and checks that what it prints is exactly
// what the manifest names, once each, with the manifest's unit, that no
// correctness check fails, and that the span file is a tree.
func TestEveryWorkloadReportsEveryMetric(t *testing.T) {
	man := loadManifest(t)
	cfg := runConfig{seed: 7, sz: tinySizes} // no window: the floors decide
	scratch := t.TempDir()
	rec := newRecorder()
	for _, name := range workloadNames {
		if name == wlRHFPar2 && runtime.NumCPU() < 2 {
			if _, err := runWorkload(name, cfg, scratch, nil); err == nil {
				t.Errorf("%s ran on %d CPU instead of reporting itself skipped", name, runtime.NumCPU())
			}
			continue
		}
		for _, mode := range []struct {
			rec  *recorder
			want []manifestMetric
		}{{nil, man.EndToEnd}, {rec, man.PerLayer}} {
			res, err := runWorkload(name, cfg, scratch, mode.rec)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s: %d failed of %d attempted: %v", name, res.Failed, res.Attempted, res.Failures)
			}
			if len(res.Metrics) != len(mode.want) {
				t.Errorf("%s (traced %v): %d metrics reported, %d named in the manifest", name, res.Traced, len(res.Metrics), len(mode.want))
			}
			for i, want := range mode.want {
				if i >= len(res.Metrics) {
					break
				}
				got := res.Metrics[i]
				if got.Name != want.Name || got.Unit != want.Unit {
					t.Errorf("%s: metric %d is %s [%s], the manifest has %s [%s]", name, i, got.Name, got.Unit, want.Name, want.Unit)
				}
				if math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
					t.Errorf("%s: %s = %v", name, got.Name, got.Value)
				}
				if !res.Traced && !(got.Value > 0) {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, got.Name, got.Value)
				}
			}
			checkContractLine(t, name, res, mode.want)
		}
	}

	path := filepath.Join(scratch, "trace.json")
	if err := writeChromeTrace(path, rec.snapshot()); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tr chromeTrace
	if err := json.Unmarshal(data, &tr); err != nil {
		t.Fatalf("span file does not parse: %v", err)
	}
	if len(tr.TraceEvents) == 0 {
		t.Fatal("span file is empty")
	}
	ids := map[float64]bool{0: true}
	for _, ev := range tr.TraceEvents {
		ids[ev.Args["id"].(float64)] = true
	}
	for _, ev := range tr.TraceEvents {
		if !ids[ev.Args["parent"].(float64)] {
			t.Errorf("span %v (%s) has parent %v, which is not in the file", ev.Args["id"], ev.Name, ev.Args["parent"])
		}
		if ev.Dur < 0 || ev.Args["req"] == "" {
			t.Errorf("span %v (%s): duration %v, request %q", ev.Args["id"], ev.Name, ev.Dur, ev.Args["req"])
		}
	}
}

func checkContractLine(t *testing.T, name string, res *workloadResult, want []manifestMetric) {
	t.Helper()
	var line struct {
		Correct   *bool `json:"correct"`
		Attempted *int  `json:"attempted"`
		Failed    *int  `json:"failed"`
		Metrics   map[string]struct {
			Value *float64 `json:"value"`
			Unit  string   `json:"unit"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(contractLine(res)), &line); err != nil {
		t.Fatalf("%s: contract line: %v", name, err)
	}
	if line.Correct == nil || line.Attempted == nil || line.Failed == nil || !*line.Correct {
		t.Errorf("%s: contract line %s", name, contractLine(res))
	}
	if len(line.Metrics) != len(want) {
		t.Errorf("%s: contract line has %d metrics, want %d", name, len(line.Metrics), len(want))
	}
	for _, m := range want {
		if got, ok := line.Metrics[m.Name]; !ok || got.Value == nil || got.Unit != m.Unit {
			t.Errorf("%s: contract line lacks %s [%s]", name, m.Name, m.Unit)
		}
	}
}

func TestSeedMovesCoordinatesNotChemistry(t *testing.T) {
	a, b := cluster(2, 7), cluster(2, 8)
	if a.Atoms[0].Pos == b.Atoms[0].Pos {
		t.Error("two seeds gave the same coordinates")
	}
	if again := cluster(2, 7); again.Atoms[3].Pos != a.Atoms[3].Pos {
		t.Error("the same seed gave different coordinates")
	}
	if d := math.Abs(a.NuclearRepulsion() - b.NuclearRepulsion()); d > 1e-10 {
		t.Errorf("nuclear repulsion differs by %g between seeds: the motion is not rigid", d)
	}
}

func TestServeJobMixIsExactPerBlock(t *testing.T) {
	jobs, err := serveJobs(3, 10*serveBlock)
	if err != nil {
		t.Fatal(err)
	}
	seeds := map[int64]bool{}
	for b := 0; b < len(jobs); b += serveBlock {
		var water int
		for _, j := range jobs[b : b+serveBlock] {
			if j.class == classWater {
				water++
				if seeds[j.spec.Seed] {
					t.Errorf("water geometry seed %d used twice", j.spec.Seed)
				}
				seeds[j.spec.Seed] = true
			}
			if err := j.spec.Validate(); err != nil {
				t.Errorf("generated spec is invalid: %v", err)
			}
		}
		if water != serveWatersPerBlock {
			t.Errorf("block at %d has %d water jobs, want %d", b, water, serveWatersPerBlock)
		}
	}
}

func TestSelfTimeSubtractsCoveredPart(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 1, Start: 0, End: 100 * ms},
		{ID: 2, Parent: 1, Start: 10 * ms, End: 40 * ms},
		{ID: 3, Parent: 1, Start: 30 * ms, End: 60 * ms}, // overlaps span 2 by 10 ms
		{ID: 4, Parent: 2, Start: 10 * ms, End: 15 * ms},
	}
	self := selfTimes(spans)
	for id, want := range map[int]time.Duration{1: 50 * ms, 2: 25 * ms, 3: 30 * ms, 4: 5 * ms} {
		if self[id] != want {
			t.Errorf("self time of span %d = %v, want %v", id, self[id], want)
		}
	}
}

func TestTailIsTheHighestSupportedPercentile(t *testing.T) {
	s := sample{5, 1, 4, 2, 3}
	if got := s.median(); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if got := s.tail(); got != 3 {
		t.Errorf("tail of five values = %v, want their median", got)
	}
	var hundred sample
	for i := 100; i >= 1; i-- {
		hundred = append(hundred, float64(i))
	}
	if got := hundred.tail(); got != 95 {
		t.Errorf("tail of 1..100 = %v, want the nearest-rank 95th percentile", got)
	}
	if m := fromSample("x", "s", s); m.Lo != 1 || m.Hi != 5 {
		t.Errorf("median range of five values = [%v, %v], want min and max", m.Lo, m.Hi)
	}
	if m := fromSample("x", "s", hundred); m.Lo != 41 || m.Hi != 60 {
		t.Errorf("median range of 1..100 = [%v, %v], want ranks 41 and 60", m.Lo, m.Hi)
	}
	if got := (sample{1, 1, 1, 2}).outlierShare(); got != 0.25 {
		t.Errorf("outlier share = %v, want 0.25", got)
	}
}

func TestComparePairVerdicts(t *testing.T) {
	lower := manifestMetric{Name: "scf_s", Better: "lower", Bound: 0.10}
	higher := manifestMetric{Name: "jobs_per_s", Better: "higher", Bound: 0.10}
	m := func(v, lo, hi float64) metric { return metric{Value: v, Min: lo, Max: hi, Lo: lo, Hi: hi, N: 5} }
	for _, c := range []struct {
		what string
		a, b metric
		mm   manifestMetric
		want string
	}{
		{"same", m(4, 3.9, 4.1), m(4.1, 4, 4.2), lower, verdictWithin},
		{"slower by 20%, tight ranges", m(4, 3.9, 4.1), m(4.8, 4.7, 4.9), lower, verdictWorse},
		{"slower by 20%, wide but disjoint ranges", m(4, 3.6, 4.2), m(4.8, 4.3, 5.2), lower, verdictWorse},
		{"slower by 20%, wide overlapping ranges", m(4, 3.5, 4.9), m(4.8, 4.0, 5.2), lower, verdictUnresolved},
		{"equal medians, wide ranges", m(4, 3.5, 4.9), m(4, 3.4, 4.8), lower, verdictUnresolved},
		{"faster by 20%", m(4, 3.9, 4.1), m(3.2, 3.1, 3.3), lower, verdictBetter},
		{"throughput down 20%", m(200, 198, 202), m(160, 158, 162), higher, verdictWorse},
		{"throughput up 20%", m(200, 198, 202), m(240, 238, 242), higher, verdictBetter},
	} {
		if _, got := comparePair(c.a, c.b, c.mm); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.what, got, c.want)
		}
	}
}

// TestStaticChecksStayClean runs go vet and the repository's own
// analyzers over the benchmark's directory.
func TestStaticChecksStayClean(t *testing.T) {
	root, err := filepath.Abs(repoRoot)
	if err != nil {
		t.Fatal(err)
	}
	loader, err := lint.NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.Load(root, []string{"./benchmarks/..."})
	if err != nil {
		t.Fatal(err)
	}
	findings, stale := lint.RunWithStale(pkgs, lint.All())
	for _, f := range append(findings, stale...) {
		t.Errorf("execlint: %s", f)
	}

	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go tool on PATH: go vet not run")
	}
	cmd := exec.Command(goTool, "vet", "./benchmarks/...")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Errorf("go vet ./benchmarks/...: %v\n%s", err, out)
	}
}
