// Command scfbench is the repository's benchmark: four workloads that
// between them run every layer from POST /v1/jobs down to the ERI sweep,
// each reported as named end-to-end metrics (tracing off) or, in a traced
// run, as the per-layer metrics that explain them. BENCHMARK.json at the
// repository root is its contract; benchmarks/README.md says what every
// metric and workload is for.
//
// Usage:
//
//	scfbench -workload <name|all> -seed N [-seconds S] [-trace 0|1|FILE] [-out FILE]
//	scfbench -compare A.json B.json
//
// Run from the repository root. The last line of standard output is one
// JSON object per the contract; everything above it is the readable
// report. Exit status: 0 measured and correct, 1 a correctness check
// failed (or -compare found a pair out of bound), 2 usage or run error,
// 3 the workload cannot run on this host and was skipped.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"
)

const (
	manifestPath   = "BENCHMARK.json"
	scratchDir     = ".bench_build/scfbench"
	defaultSeconds = 16 // BENCHMARK.json's run_seconds
)

var errSkipped = errors.New("skipped")

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("scfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "all", "workload to run: "+strings.Join(workloadNames, " | ")+" | all")
	seed := fs.Int64("seed", 7, "seed of every generated input: cluster orientation, stealing victims, served job order, H2 bond lengths")
	seconds := fs.Int("seconds", defaultSeconds, "measuring window per workload, in seconds")
	trace := fs.String("trace", "0", "0: end-to-end metrics, tracing off; 1 or a file name: the traced run and its per-layer metrics, spans written as Chrome-trace JSON")
	out := fs.String("out", "", "also write the results as a JSON result set to this file (the input of -compare)")
	compare := fs.Bool("compare", false, "compare two result sets: scfbench -compare A.json B.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "scfbench: -compare takes two result-set files")
			return 2
		}
		return compareFiles(stdout, stderr, fs.Arg(0), fs.Arg(1))
	}
	if fs.NArg() != 0 || *seconds < 1 {
		fs.Usage()
		return 2
	}
	names := workloadNames
	if *workload != "all" {
		if !slices.Contains(workloadNames, *workload) {
			fmt.Fprintf(stderr, "scfbench: unknown workload %q (have %s)\n", *workload, strings.Join(workloadNames, ", "))
			return 2
		}
		names = []string{*workload}
	}

	var rec *recorder
	traceFile := ""
	switch *trace {
	case "0", "":
	case "1":
		traceFile = filepath.Join(scratchDir, fmt.Sprintf("trace-%s-seed%d.json", *workload, *seed))
		rec = newRecorder()
	default:
		traceFile = *trace
		rec = newRecorder()
	}

	cfg := runConfig{seed: *seed, window: time.Duration(*seconds) * time.Second, sz: fullSizes}
	rs := &resultSet{Env: readEnvironment(), Seconds: *seconds, CommandLine: args}
	fmt.Fprintf(stdout, "scfbench: %s, %d CPU(s), GOMAXPROCS %d, %s %s/%s, seed %d, window %d s\n",
		rs.Env.CPUModel, rs.Env.NumCPU, rs.Env.GOMAXPROCS, rs.Env.GoVersion, rs.Env.GOOS, rs.Env.GOARCH, *seed, *seconds)

	start := time.Now()
	status := 0
	for _, name := range names {
		t0 := time.Now()
		res, err := runWorkload(name, cfg, scratchDir, rec)
		switch {
		case errors.Is(err, errSkipped):
			fmt.Fprintf(stdout, "\n== %s  %v\n", name, err)
			fmt.Fprintf(stderr, "scfbench: %v\n", err)
			status = max(status, 3)
			continue
		case err != nil:
			fmt.Fprintf(stderr, "scfbench: %s: %v\n", name, err)
			return 2
		}
		res.WallSeconds = time.Since(t0).Seconds()
		if traceFile != "" {
			res.note("spans: %s", traceFile)
		}
		rs.Results = append(rs.Results, *res)
		printReport(stdout, res)
		if res.Failed > 0 {
			status = max(status, 1)
		}
	}
	rs.TotalWallS = time.Since(start).Seconds()
	fmt.Fprintf(stdout, "\ntotal wall time %.1f s\n", rs.TotalWallS)

	if traceFile != "" {
		if err := os.MkdirAll(filepath.Dir(traceFile), 0o755); err != nil {
			fmt.Fprintf(stderr, "scfbench: %v\n", err)
			return 2
		}
		if err := writeChromeTrace(traceFile, rec.snapshot()); err != nil {
			fmt.Fprintf(stderr, "scfbench: %v\n", err)
			return 2
		}
	}
	if *out != "" {
		if err := writeResultSet(*out, rs); err != nil {
			fmt.Fprintf(stderr, "scfbench: %v\n", err)
			return 2
		}
	}
	// The contract's last line; with -workload all, one per workload.
	for i := range rs.Results {
		fmt.Fprintln(stdout, contractLine(&rs.Results[i]))
	}
	return status
}

// runWorkload runs one workload: end to end when rec is nil, traced
// otherwise. The served workload keeps its spools under scratch.
func runWorkload(name string, cfg runConfig, scratch string, rec *recorder) (*workloadResult, error) {
	if name == wlServe {
		if rec != nil {
			return serveTraced(cfg, scratch, rec)
		}
		return serveEndToEnd(cfg, scratch)
	}
	k := scfKinds(cfg.sz)[name]
	if rec != nil {
		return scfTraced(k, cfg, rec)
	}
	return scfEndToEnd(k, cfg)
}
