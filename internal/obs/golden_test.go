package obs

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

// Golden-file tests for the three exporters. The fixture under testdata/
// is the contract: any byte of drift in the Chrome trace JSON, the
// OpenMetrics dump or the Gantt rendering fails here. Regenerate
// intentionally with:
//
//	go test ./internal/obs -run TestGolden -update

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

// goldenTrace builds a small fixed trace exercising every span flavour:
// tasks, counter waits, messages with src/dst/bytes and steals.
func goldenTrace() *Trace {
	tr := &Trace{}
	tr.Record(Span{Rank: 0, Start: 0, End: 0.4, TaskID: 0, Activity: "task"})
	tr.Record(Span{Rank: 0, Start: 0.4, End: 0.5, TaskID: -1, Activity: "comm", Src: 1, Dst: 0, Bytes: 4096})
	tr.Record(Span{Rank: 0, Start: 0.5, End: 0.9, TaskID: 2, Activity: "task"})
	tr.Record(Span{Rank: 0, Start: 0.9, End: 1.0, TaskID: -1, Activity: "counter"})
	tr.Record(Span{Rank: 1, Start: 0, End: 0.1, TaskID: -1, Activity: "counter"})
	tr.Record(Span{Rank: 1, Start: 0.1, End: 0.6, TaskID: 1, Activity: "task"})
	tr.Record(Span{Rank: 1, Start: 0.6, End: 0.65, TaskID: -1, Activity: "steal"})
	tr.Record(Span{Rank: 1, Start: 0.65, End: 0.8, TaskID: 3, Activity: "task"})
	tr.Record(Span{Rank: 2, Start: 0, End: 0.3, TaskID: 4, Activity: "task"})
	tr.Record(Span{Rank: 2, Start: 0.3, End: 0.5, TaskID: -1, Activity: "comm", Src: 0, Dst: 2, Bytes: 2048})
	tr.Record(Span{Rank: 2, Start: 0.5, End: 0.7, TaskID: -1, Activity: "steal"})
	tr.Record(Span{Rank: 2, Start: 0.7, End: 1.0, TaskID: 5, Activity: "task"})
	return tr
}

// goldenRegistry builds a small fixed registry with every metric kind.
func goldenRegistry() *Registry {
	r := NewRegistry(3)
	r.Count(CTasks, 0, 2)
	r.Count(CTasks, 1, 3)
	r.Count(CTasks, 2, 2)
	r.Count(CSteals, 1, 1)
	r.Count(CCommBytes, 0, 4096)
	r.Add(MBusy, 0, 0.8)
	r.Add(MBusy, 1, 0.65)
	r.Add(MBusy, 2, 0.5)
	r.Set(MFinish, 0, 1.0)
	r.Set(MFinish, 1, 0.8)
	r.Set(MFinish, 2, 1.0)
	r.Observe(HTask, 0, 0.4)
	r.Observe(HTask, 0, 0.4)
	r.Observe(HTask, 1, 0.5)
	r.Observe(HTask, 1, 0.05)
	r.Observe(HTask, 1, 0.15)
	r.Observe(HTask, 2, 0.3)
	r.Observe(HTask, 2, 0.3)
	return r
}

// checkGolden compares got against testdata/<name>, rewriting the fixture
// under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from its golden file.\n--- got ---\n%s\n--- want ---\n%s\nRegenerate intentionally with -update.", name, got, want)
	}
}

func TestGoldenChromeTrace(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenTrace().WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "trace.chrome.json", buf.Bytes())
}

func TestGoldenOpenMetrics(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteOpenMetrics(&buf, goldenRegistry(), map[string]string{"model": "golden"}); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "registry.om.txt", buf.Bytes())
}

func TestGoldenGantt(t *testing.T) {
	checkGolden(t, "trace.gantt.txt", []byte(goldenTrace().Gantt(3, 40)))
}

// TestGoldenDeterminism double-renders each exporter: byte-identical
// output is the layer's core promise, independent of the fixtures.
func TestGoldenDeterminism(t *testing.T) {
	var a, b bytes.Buffer
	if err := WriteOpenMetrics(&a, goldenRegistry(), nil); err != nil {
		t.Fatal(err)
	}
	if err := WriteOpenMetrics(&b, goldenRegistry(), nil); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("WriteOpenMetrics is not deterministic")
	}

	a.Reset()
	b.Reset()
	if err := goldenTrace().WriteChromeTrace(&a); err != nil {
		t.Fatal(err)
	}
	if err := goldenTrace().WriteChromeTrace(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("WriteChromeTrace is not deterministic")
	}
}
