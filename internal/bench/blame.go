package bench

import (
	"fmt"
	"os"
	"path/filepath"

	"execmodels/internal/cluster"
	"execmodels/internal/core"
	"execmodels/internal/obs"
)

// Blame-analysis experiment and metric export: T9 decomposes each
// execution model's rank-seconds (makespan × P) into where the time
// actually went — compute, communication, counter traffic, stealing and
// idle — using the internal/obs registry every executor feeds.
// WriteMetrics dumps the raw registries in OpenMetrics and JSON form for
// external tooling.

// blameRun executes one model with tracing and returns its result and
// blame decomposition.
func (s *Suite) blameRun(mod core.Model, ranks int) (*core.Result, *obs.Blame) {
	machine := s.machine(ranks)
	machine.Trace = &cluster.Trace{}
	res := mod.Run(s.work, machine)
	return res, res.Blame(machine.Trace)
}

// Table9 is the blame-decomposition table: for every model, the share of
// total rank-seconds spent in each activity. The shares sum to 100% by
// construction (the decomposition is exact; internal/core/blame_test.go
// asserts it to float tolerance), so the table answers "where would one
// more rank's worth of time go" directly.
func (s *Suite) Table9() *Table {
	s.prepare()
	ranks := s.maxRanks()

	t := &Table{
		ID:     "T9",
		Title:  f("blame decomposition, P=%d: %% of makespan×P per activity", ranks),
		Header: []string{"model", "makespan(s)", "compute%", "comm%", "counter%", "steal%", "idle%", "critical(s)"},
	}

	for _, mod := range core.AllModels(s.Seed) {
		_, b := s.blameRun(mod, ranks)
		total := b.Makespan * float64(b.Ranks)
		pct := func(name string) string {
			if total == 0 {
				return "0.00"
			}
			return f("%.2f", 100*b.Components[name]/total)
		}
		row := []string{mod.Name(), f("%.4g", b.Makespan)}
		for _, name := range obs.ComponentOrder() { // ends with "idle"
			row = append(row, pct(name))
		}
		row = append(row, f("%.4g", b.CriticalPathSeconds))
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes,
		"expected shape: static models trade idle (imbalance) for zero coordination; dynamic "+
			"models convert that idle into counter/steal overhead",
		"compute% is identical work divided by makespan×P, so it doubles as a parallel-efficiency "+
			"column: higher compute% = less wasted machine",
	)
	return t
}

// WriteMetrics runs every execution model at the given rank count and writes,
// per model, `<name>.om.txt` (the OpenMetrics dump of its registry) and
// `<name>.summary.json` (the machine-readable run summary), plus a single
// `blame.txt` with the human-readable blame tables. Output is a pure
// function of (scale, seed, ranks) — byte-identical across runs.
func (s *Suite) WriteMetrics(dir string, ranks int) (err error) {
	if err := checkRanks(ranks); err != nil {
		return err
	}
	s.prepare()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	blamePath := filepath.Join(dir, "blame.txt")
	bf, err := os.Create(blamePath)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := bf.Close(); err == nil {
			err = cerr
		}
	}()

	for _, mod := range core.AllModels(s.Seed) {
		res, b := s.blameRun(mod, ranks)

		om, err := os.Create(filepath.Join(dir, mod.Name()+".om.txt"))
		if err != nil {
			return err
		}
		werr := obs.WriteOpenMetrics(om, res.Obs, map[string]string{"model": mod.Name()})
		if cerr := om.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			return werr
		}

		sj, err := os.Create(filepath.Join(dir, mod.Name()+".summary.json"))
		if err != nil {
			return err
		}
		werr = res.Summary(b).WriteJSON(sj)
		if cerr := sj.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			return werr
		}

		if _, err := fmt.Fprintf(bf, "%s\n", b.Table()); err != nil {
			return err
		}
	}
	return nil
}
