// benchsuite regenerates the evaluation's tables and figures (see
// DESIGN.md's per-experiment index).
//
// Usage:
//
//	benchsuite -list
//	benchsuite -exp F2
//	benchsuite -exp all -scale paper
package main

import (
	"bytes"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"execmodels/internal/bench"
	"execmodels/internal/core"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchsuite: ")
	var (
		exp       = flag.String("exp", "all", "experiment ID ("+strings.Join(bench.Experiments(), " ")+"), comma list, or 'all'")
		scale     = flag.String("scale", "small", "workload scale: small | paper")
		seed      = flag.Int64("seed", 1, "experiment seed")
		list      = flag.Bool("list", false, "list available experiments and exit")
		gantt     = flag.String("gantt", "", "render an execution timeline for the given scheduler ("+strings.Join(core.SchedulerNames(), " ")+") instead of running experiments")
		ranks     = flag.Int("ranks", 8, "rank count for -gantt and -metrics")
		asCSV     = flag.Bool("csv", false, "emit CSV instead of aligned text tables")
		chromeOut = flag.String("chrome", "", "with -gantt: write a Chrome trace-event JSON to this file instead of text")
		dump      = flag.String("dump", "", "write the suite's chemistry workload as JSON to this file and exit")
		svgDir    = flag.String("svg", "", "render the figure experiments (F2-F6) as SVG charts into this directory and exit")
		metrics   = flag.String("metrics", "", "run every model at -ranks and write OpenMetrics dumps, JSON summaries and blame tables into this directory, then exit")
	)
	flag.Parse()

	if *list {
		fmt.Println("available experiments and the claim each backs:")
		for _, id := range bench.Experiments() {
			fmt.Printf("  %s  %s\n", id, bench.Claim(id))
		}
		return
	}

	s := bench.NewSuite(*scale, *seed)
	if *dump != "" {
		f, err := os.Create(*dump)
		if err != nil {
			log.Fatal(err)
		}
		err = core.WriteWorkload(f, s.Workload())
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s-scale chemistry workload to %s\n", *scale, *dump)
		return
	}
	if *metrics != "" {
		if err := s.WriteMetrics(*metrics, *ranks); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote per-model metrics, summaries and blame tables to %s (P=%d)\n", *metrics, *ranks)
		return
	}
	if *svgDir != "" {
		files, err := s.FigureSVGs(*svgDir)
		if err != nil {
			log.Fatal(err)
		}
		for _, f := range files {
			fmt.Println("wrote", f)
		}
		return
	}
	if *gantt != "" {
		if *chromeOut != "" {
			// Render first: a refused name or rank count must not leave
			// an empty file behind.
			var buf bytes.Buffer
			if err := s.ChromeTrace(&buf, *gantt, *ranks); err != nil {
				log.Fatal(err)
			}
			if err := os.WriteFile(*chromeOut, buf.Bytes(), 0o644); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("wrote Chrome trace for %s to %s (open in chrome://tracing)\n", *gantt, *chromeOut)
			return
		}
		out, err := s.Gantt(*gantt, *ranks, 100)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(out)
		return
	}
	var ids []string
	if *exp == "all" {
		ids = bench.Experiments()
	} else {
		for _, id := range strings.Split(*exp, ",") {
			ids = append(ids, strings.TrimSpace(id))
		}
		// Validate the whole list before running anything: a typo late in
		// the list must not surface only after minutes of earlier
		// experiments have already run.
		var unknown []string
		for _, id := range ids {
			if !bench.Known(id) {
				unknown = append(unknown, id)
			}
		}
		if len(unknown) > 0 {
			log.Fatalf("unknown experiment(s) %s; valid IDs: %s",
				strings.Join(unknown, ", "), strings.Join(bench.Experiments(), " "))
		}
	}
	for _, id := range ids {
		t, err := s.Run(id)
		if err != nil {
			log.Fatal(err)
		}
		if *asCSV {
			if err := t.FprintCSV(os.Stdout); err != nil {
				log.Fatal(err)
			}
		} else {
			t.Fprint(os.Stdout)
		}
	}
}
