package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strings"
)

// metric is one named measurement: the median of N values with their
// range, or an exact count (N = 1).
type metric struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	N     int     `json:"n"`
	// Lo and Hi bound the median at 95% from the sample's own order
	// statistics (ranks n/2 ± √n); up to 7 values that is min and max.
	// -compare reads a pair as unresolved from these, not from Min and
	// Max, which for 4000 job latencies say nothing about the median.
	Lo float64 `json:"median_lo"`
	Hi float64 `json:"median_hi"`
	// OffPath marks a layer that does no work on this workload: the
	// value 0 is the time it contributes, not a measurement of it.
	OffPath bool `json:"off_path,omitempty"`
}

func fromSample(name, unit string, s sample) metric {
	return scaled(name, unit, s, 1)
}

// scaled reports s multiplied by k (a unit conversion).
func scaled(name, unit string, s sample, k float64) metric {
	c := s.sorted()
	m := metric{Name: name, Unit: unit, N: len(c)}
	if n := len(c); n > 0 {
		m.Value, m.Min, m.Max = k*s.median(), k*c[0], k*c[n-1]
		r := max(0, int((float64(n)-1.96*math.Sqrt(float64(n)))/2))
		m.Lo, m.Hi = k*c[r], k*c[n-1-r]
	}
	return m
}

func exact(name, unit string, v float64) metric {
	return metric{Name: name, Unit: unit, Value: v, Min: v, Max: v, Lo: v, Hi: v, N: 1}
}

// workloadResult is everything one run of one workload produced.
type workloadResult struct {
	Workload  string   `json:"workload"`
	Seed      int64    `json:"seed"`
	Traced    bool     `json:"traced"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Failures  []string `json:"failures,omitempty"`
	Metrics   []metric `json:"metrics"`
	// Notes are facts about the run that are not metrics: iteration
	// counts, molecule and basis sizes, where the span file went.
	Notes []string `json:"notes,omitempty"`
	// Repeats is the number of timed repeats (SCF runs or served jobs)
	// behind the end-to-end medians.
	Repeats int `json:"repeats"`
	// OutlierShare is noise.outlier_share: the share of timed repeats
	// more than 15% off their median.
	OutlierShare float64 `json:"noise.outlier_share"`
	WallSeconds  float64 `json:"wall_s"`
}

func (r *workloadResult) fail(format string, args ...any) {
	r.Failed++
	if len(r.Failures) < 20 {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

func (r *workloadResult) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

func (r *workloadResult) add(m ...metric) { r.Metrics = append(r.Metrics, m...) }

func (r *workloadResult) failedShare() float64 {
	if r.Attempted == 0 {
		return 1
	}
	return float64(r.Failed) / float64(r.Attempted)
}

func (r *workloadResult) get(name string) (metric, bool) {
	for _, m := range r.Metrics {
		if m.Name == name {
			return m, true
		}
	}
	return metric{}, false
}

// environment is recorded with every result so that numbers from
// different hosts are never compared by accident.
type environment struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"GOMAXPROCS"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
}

func readEnvironment() environment {
	return environment{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// resultSet is what -out writes and -compare reads.
type resultSet struct {
	Env         environment      `json:"env"`
	Seconds     int              `json:"seconds"`
	TotalWallS  float64          `json:"total_wall_s"`
	Results     []workloadResult `json:"results"`
	CommandLine []string         `json:"command_line"`
}

func writeResultSet(path string, rs *resultSet) error {
	data, err := json.MarshalIndent(rs, "", " ")
	if err != nil {
		return fmt.Errorf("encode results: %w", err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("write results: %w", err)
	}
	return nil
}

func readResultSet(path string) (*resultSet, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read results: %w", err)
	}
	var rs resultSet
	if err := json.Unmarshal(data, &rs); err != nil {
		return nil, fmt.Errorf("read results %s: %w", path, err)
	}
	return &rs, nil
}

// manifest is BENCHMARK.json, the contract this program is run under.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func readManifest(path string) (*manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read manifest: %w", err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("read manifest %s: %w", path, err)
	}
	return &m, nil
}

// printReport writes the readable form of one result: every metric by
// name with its unit, range and sample count.
func printReport(w io.Writer, r *workloadResult) {
	mode := "end-to-end (tracing off)"
	if r.Traced {
		mode = "per-layer (traced run)"
	}
	fmt.Fprintf(w, "\n== %s  seed %d  %s  wall %.1fs\n", r.Workload, r.Seed, mode, r.WallSeconds)
	for _, n := range r.Notes {
		fmt.Fprintf(w, "   %s\n", n)
	}
	for _, m := range r.Metrics {
		switch {
		case m.OffPath:
			fmt.Fprintf(w, "   %-28s %14s %-6s layer not on this workload's path\n", m.Name, "0", m.Unit)
		case m.N > 1:
			fmt.Fprintf(w, "   %-28s %14.6g %-6s [%.6g .. %.6g] n=%d\n", m.Name, m.Value, m.Unit, m.Min, m.Max, m.N)
		default:
			fmt.Fprintf(w, "   %-28s %14.6g %-6s n=1\n", m.Name, m.Value, m.Unit)
		}
	}
	fmt.Fprintf(w, "   %-28s %14.6g %-6s %d failed of %d attempted\n", "failed_share", r.failedShare(), "share", r.Failed, r.Attempted)
	fmt.Fprintf(w, "   %-28s %14.6g %-6s of %d timed repeats more than 15%% off the median\n", "noise.outlier_share", r.OutlierShare, "share", r.Repeats)
	for _, f := range r.Failures {
		fmt.Fprintf(w, "   FAILED: %s\n", f)
	}
}

// contractLine is the one-line JSON the benchmark contract asks for as
// the last line of standard output.
func contractLine(r *workloadResult) string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{Correct: r.Failed == 0 && r.Attempted > 0, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]mv{}}
	for _, m := range r.Metrics {
		out.Metrics[m.Name] = mv{Value: m.Value, Unit: m.Unit}
	}
	data, err := json.Marshal(out)
	if err != nil {
		// Only NaN or Inf can fail here; both are a bug in a probe.
		panic(err)
	}
	return string(data)
}
