// Command execlint runs the repository's static-analysis suite: the
// syntactic guardedby and floateq checks and the interprocedural
// maporder, goleak (every go statement needs a completion edge) and
// ctxcancel (blocking operations on HTTP request paths select on
// ctx.Done() or a deadline) checks built on the internal/lint/dataflow
// summary engine. See internal/lint.
//
// Usage:
//
//	execlint [-json] [-analyzer goleak,ctxcancel,...] [-stale-suppressions] [packages]
//
// Package patterns are directories relative to the working directory,
// with "./..." expanding recursively (default).
//
// Exit status:
//
//	0  no findings survived //lint:ignore suppression
//	1  findings were reported
//	2  usage error, unknown analyzer name, or package load failure
//
// With -json each finding is one NDJSON line (check, position, message,
// and the call chain for interprocedural findings), ordered
// deterministically — two runs over the same tree are byte-identical.
// Per-line suppression, reason mandatory:
//
//	//lint:ignore <check> <reason>
//
// With -stale-suppressions, directives that suppressed nothing during
// the run are additionally reported as "staleignore" findings — dead
// suppressions would otherwise hide the next real finding on their line.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"execmodels/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("execlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit one NDJSON finding per line (check, position, message, call chain)")
	analyzer := fs.String("analyzer", "", "comma-separated subset of analyzers to run (default: all; see -list)")
	list := fs.Bool("list", false, "list available analyzers and exit")
	stale := fs.Bool("stale-suppressions", false, "also report //lint:ignore directives that no longer suppress any finding")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: execlint [-json] [-analyzer name,...] [-stale-suppressions] [packages]\n\n")
		fs.PrintDefaults()
		fmt.Fprintf(stderr, "\nexit status: 0 no findings, 1 findings reported, 2 usage/load error\n")
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}

	analyzers := lint.All()
	if *list {
		for _, a := range analyzers {
			fmt.Fprintf(stdout, "%-12s %s\n", a.Name(), a.Doc())
		}
		return 0
	}
	if *analyzer != "" {
		// Validate every requested name up front (the way benchsuite
		// validates -exp IDs): report all unknown names at once with the
		// valid vocabulary, rather than failing on the first.
		byName := map[string]lint.Analyzer{}
		valid := make([]string, 0, len(analyzers))
		for _, a := range analyzers {
			byName[a.Name()] = a
			valid = append(valid, a.Name())
		}
		sort.Strings(valid)
		var picked []lint.Analyzer
		var unknown []string
		for _, name := range strings.Split(*analyzer, ",") {
			name = strings.TrimSpace(name)
			if name == "" {
				continue
			}
			if a, ok := byName[name]; ok {
				picked = append(picked, a)
			} else {
				unknown = append(unknown, name)
			}
		}
		if len(unknown) > 0 {
			fmt.Fprintf(stderr, "execlint: unknown analyzer(s): %s\nvalid analyzers: %s\n",
				strings.Join(unknown, ", "), strings.Join(valid, ", "))
			return 2
		}
		if len(picked) == 0 {
			fmt.Fprintf(stderr, "execlint: -analyzer selected nothing; valid analyzers: %s\n", strings.Join(valid, ", "))
			return 2
		}
		analyzers = picked
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(stderr, "execlint: %v\n", err)
		return 2
	}
	loader, err := lint.NewLoader(cwd)
	if err != nil {
		fmt.Fprintf(stderr, "execlint: %v\n", err)
		return 2
	}
	pkgs, err := loader.Load(cwd, patterns)
	if err != nil {
		fmt.Fprintf(stderr, "execlint: %v\n", err)
		return 2
	}

	var findings []lint.Finding
	if *stale {
		var staleFindings []lint.Finding
		findings, staleFindings = lint.RunWithStale(pkgs, analyzers)
		findings = append(findings, staleFindings...)
		lint.SortFindings(findings)
	} else {
		findings = lint.Run(pkgs, analyzers)
	}

	if *jsonOut {
		type jsonStep struct {
			File string `json:"file"`
			Line int    `json:"line"`
			Desc string `json:"desc"`
		}
		type jsonFinding struct {
			File    string     `json:"file"`
			Line    int        `json:"line"`
			Column  int        `json:"column"`
			Check   string     `json:"check"`
			Message string     `json:"message"`
			Path    []jsonStep `json:"path,omitempty"`
		}
		enc := json.NewEncoder(stdout) // one finding per line: NDJSON
		for _, f := range findings {
			jf := jsonFinding{
				File:    f.Pos.Filename,
				Line:    f.Pos.Line,
				Column:  f.Pos.Column,
				Check:   f.Check,
				Message: f.Message,
			}
			for _, s := range f.Path {
				jf.Path = append(jf.Path, jsonStep{File: s.Pos.Filename, Line: s.Pos.Line, Desc: s.Desc})
			}
			if err := enc.Encode(jf); err != nil {
				fmt.Fprintf(stderr, "execlint: %v\n", err)
				return 2
			}
		}
	} else {
		for _, f := range findings {
			fmt.Fprintln(stdout, f.String())
		}
	}
	if len(findings) > 0 {
		if !*jsonOut {
			fmt.Fprintf(stderr, "execlint: %d finding(s)\n", len(findings))
		}
		return 1
	}
	return 0
}
