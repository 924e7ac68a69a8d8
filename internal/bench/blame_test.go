package bench

import (
	"os"
	"strings"
	"testing"
)

// committedTable parses the section with the given ID out of a benchsuite
// text dump: its header and data rows, split on whitespace (T9's cells
// hold no spaces).
func committedTable(t *testing.T, path, id string) (header []string, rows [][]string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(data), "\n")
	for i, line := range lines {
		if !strings.HasPrefix(line, "== "+id+":") {
			continue
		}
		header = strings.Fields(lines[i+1])
		for _, row := range lines[i+2:] {
			if row == "" || strings.HasPrefix(row, "#") {
				break
			}
			rows = append(rows, strings.Fields(row))
		}
		return header, rows
	}
	t.Fatalf("%s has no %s section", path, id)
	return nil, nil
}

// TestTable9MatchesPaperScaleResults renders T9 at paper scale and checks
// every model row, column by column, against the T9 section committed in
// results/paper-scale.txt. Any change that moves a model's blame fails
// here until that file is regenerated on purpose.
func TestTable9MatchesPaperScaleResults(t *testing.T) {
	got := NewSuite("paper", 1).Table9()
	header, rows := committedTable(t, "../../results/paper-scale.txt", "T9")

	col := map[string]int{}
	for j, h := range header {
		col[h] = j
	}
	want := map[string][]string{}
	for _, row := range rows {
		want[row[0]] = row
	}
	if len(got.Rows) != len(rows) {
		t.Errorf("T9 has %d model rows, committed section has %d", len(got.Rows), len(rows))
	}
	for _, row := range got.Rows {
		w, ok := want[row[0]]
		if !ok {
			t.Errorf("model %s missing from the committed T9", row[0])
			continue
		}
		for i, h := range got.Header {
			j, ok := col[h]
			if !ok {
				t.Fatalf("column %s missing from the committed T9 header %v", h, header)
			}
			if row[i] != w[j] {
				t.Errorf("%s %s = %s, committed %s", row[0], h, row[i], w[j])
			}
		}
	}
}
