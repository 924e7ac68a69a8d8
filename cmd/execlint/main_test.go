package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestListNamesFiveAnalyzers pins -list: one line per analyzer, in
// suite order, and exit status 0.
func TestListNamesFiveAnalyzers(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("-list exited %d, want 0; stderr: %s", code, stderr.String())
	}
	var names []string
	for _, line := range strings.Split(strings.TrimSpace(stdout.String()), "\n") {
		names = append(names, strings.Fields(line)[0])
	}
	want := []string{"guardedby", "floateq", "maporder", "goleak", "ctxcancel"}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Errorf("-list names %v, want %v", names, want)
	}
}

// TestUnknownAnalyzerExitsTwo pins the exit status a CI step tells
// apart from findings (1): an unknown name is a usage error, reported
// before any package is loaded and with nothing on stdout.
func TestUnknownAnalyzerExitsTwo(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-json", "-analyzer", "nosuch", "./..."}, &stdout, &stderr); code != 2 {
		t.Fatalf("unknown analyzer exited %d, want 2", code)
	}
	if stdout.Len() != 0 {
		t.Errorf("unknown analyzer wrote stdout: %q", stdout.String())
	}
	if !strings.Contains(stderr.String(), "valid analyzers: ctxcancel, floateq, goleak, guardedby, maporder") {
		t.Errorf("stderr does not list the valid analyzers: %q", stderr.String())
	}
}

// TestUnknownAnalyzersReportedTogether: every unknown name is named in
// one report, not only the first.
func TestUnknownAnalyzersReportedTogether(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-analyzer", "clocktaint,maporder,lockset"}, &stdout, &stderr)
	if code != 2 {
		t.Fatalf("exited %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), "unknown analyzer(s): clocktaint, lockset\n") {
		t.Errorf("stderr = %q, want both unknown names in one report", stderr.String())
	}
}
