package lint

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden NDJSON files from current findings")

// encodeNDJSON renders findings exactly the way cmd/execlint -json does —
// one JSON object per line, path steps inline — so the goldens pin the
// machine-readable surface of the new finding kinds, not just their
// human-readable messages.
func encodeNDJSON(t *testing.T, findings []Finding) []byte {
	t.Helper()
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
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, f := range findings {
		jf := jsonFinding{
			File:    filepath.ToSlash(f.Pos.Filename),
			Line:    f.Pos.Line,
			Column:  f.Pos.Column,
			Check:   f.Check,
			Message: f.Message,
		}
		for _, s := range f.Path {
			jf.Path = append(jf.Path, jsonStep{File: filepath.ToSlash(s.Pos.Filename), Line: s.Pos.Line, Desc: s.Desc})
		}
		if err := enc.Encode(jf); err != nil {
			t.Fatalf("encode: %v", err)
		}
	}
	return buf.Bytes()
}

// checkGolden runs one analyzer over its fixture and compares the NDJSON
// rendering byte-for-byte against testdata/golden/<name>.ndjson. The
// comparison doubles as a determinism check: finding order, path steps
// and message text must all be stable or the goldens churn.
func checkGolden(t *testing.T, a Analyzer, fixture string) {
	t.Helper()
	pkg := loadFixture(t, fixture)
	findings := a.Run(pkg)
	SortFindings(findings)
	got := encodeNDJSON(t, findings)

	goldenPath := filepath.Join("testdata", "golden", fixture+".ndjson")
	if *updateGolden {
		if err := os.WriteFile(goldenPath, got, 0o644); err != nil {
			t.Fatalf("write golden: %v", err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read golden (run with -update to regenerate): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("NDJSON output drifted from %s (run with -update to regenerate)\n--- got ---\n%s--- want ---\n%s", goldenPath, got, want)
	}
}

func TestCtxCancelGolden(t *testing.T) {
	c := NewCtxCancel()
	c.Packages = []string{"fixture/ctxcancel"}
	checkGolden(t, c, "ctxcancel")
}
