package bench

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"execmodels/internal/plot"
)

// FigureSVGs renders the figure experiments (F2–F6) as SVG line charts
// into dir, returning the files written. F1 (a histogram) and F8 (a
// two-workload table) stay textual.
func (s *Suite) FigureSVGs(dir string) ([]string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	var written []string
	type spec struct {
		id    string
		chart func(t *Table) (*plot.Chart, error)
	}
	specs := []spec{
		{"F2", func(t *Table) (*plot.Chart, error) {
			return matrixChart(t, "ranks", "simulated time (s)", true, true)
		}},
		{"F3", func(t *Table) (*plot.Chart, error) {
			return columnsChart(t, 0, []int{2, 3, 4}, "block size", "simulated time (s)", true)
		}},
		{"F4", func(t *Table) (*plot.Chart, error) {
			return matrixChart(t, "heterogeneity", "slowdown", false, false)
		}},
		{"F5", func(t *Table) (*plot.Chart, error) {
			return columnsChart(t, 0, []int{3, 6}, "ranks", "simulated time (s)", true)
		}},
		{"F6", func(t *Table) (*plot.Chart, error) {
			return matrixChart(t, "throttle probability", "slowdown", false, false)
		}},
	}
	for _, sp := range specs {
		tbl, err := s.Run(sp.id)
		if err != nil {
			return written, err
		}
		chart, err := sp.chart(tbl)
		if err != nil {
			return written, fmt.Errorf("%s: %w", sp.id, err)
		}
		chart.Title = fmt.Sprintf("%s: %s", tbl.ID, tbl.Title)
		path := filepath.Join(dir, strings.ToLower(sp.id)+".svg")
		f, err := os.Create(path)
		if err != nil {
			return written, err
		}
		err = chart.WriteSVG(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return written, err
		}
		written = append(written, path)
	}
	return written, nil
}

// matrixChart converts a table whose header is [label, k=v, k=v, ...] and
// whose rows are [series, y, y, ...] into a chart (the F2/F4/F6 shape).
func matrixChart(t *Table, xlabel, ylabel string, logX, logY bool) (*plot.Chart, error) {
	c := &plot.Chart{XLabel: xlabel, YLabel: ylabel, LogX: logX, LogY: logY}
	xs := make([]float64, 0, len(t.Header)-1)
	for _, h := range t.Header[1:] {
		_, val, ok := strings.Cut(h, "=")
		if !ok {
			return nil, fmt.Errorf("header %q has no x value", h)
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return nil, err
		}
		if logX && v <= 0 {
			v = logFloor(xs)
		}
		xs = append(xs, v)
	}
	for _, row := range t.Rows {
		ys := make([]float64, 0, len(row)-1)
		for _, cell := range row[1:] {
			v, err := strconv.ParseFloat(cell, 64)
			if err != nil {
				return nil, err
			}
			ys = append(ys, v)
		}
		if err := c.AddSeries(row[0], xs, ys); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// columnsChart plots selected numeric columns of a table against the
// numeric column xCol; each selected column becomes a series named by its
// header.
func columnsChart(t *Table, xCol int, yCols []int, xlabel, ylabel string, logY bool) (*plot.Chart, error) {
	c := &plot.Chart{XLabel: xlabel, YLabel: ylabel, LogY: logY}
	xs := make([]float64, 0, len(t.Rows))
	for _, row := range t.Rows {
		v, err := strconv.ParseFloat(row[xCol], 64)
		if err != nil {
			return nil, err
		}
		xs = append(xs, v)
	}
	for _, yc := range yCols {
		ys := make([]float64, 0, len(t.Rows))
		for _, row := range t.Rows {
			v, err := strconv.ParseFloat(strings.TrimSuffix(row[yc], "%"), 64)
			if err != nil {
				return nil, err
			}
			if logY && v <= 0 {
				v = 1e-12
			}
			ys = append(ys, v)
		}
		if err := c.AddSeries(t.Header[yc], xs, ys); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// logFloor picks a tiny positive stand-in for zero on a log axis, one
// decade below the smallest seen value (or 0.1 if none).
func logFloor(seen []float64) float64 {
	m := 1.0
	for _, v := range seen {
		if v > 0 && v < m {
			m = v
		}
	}
	return m / 10
}
