// Package ga provides a Global-Arrays-style PGAS substrate: dense 2-D
// arrays partitioned into row blocks with one-sided Get/Put/Accumulate
// semantics, and an atomic shared counter (the classic NXTVAL dynamic
// work-distribution primitive).
//
// This is the real, concurrency-safe implementation used by the
// wall-clock executors; the simulated-time executors model only its cost.
// Every operation is safe for concurrent use by multiple goroutines.
package ga

import (
	"fmt"
	"sync"
	"sync/atomic"

	"execmodels/internal/linalg"
)

// Array is a dense rows×cols array whose rows are partitioned into p
// contiguous owner segments, each independently lockable — the analog of a
// Global Array distributed over p ranks.
type Array struct {
	Rows, Cols int
	segs       []segment
	starts     []int // row offset of each segment; len == p+1

	gets, puts, accs atomic.Int64
}

type segment struct {
	mu   sync.Mutex
	r0   int       // first row (inclusive)
	r1   int       // last row (exclusive)
	data []float64 // guarded by mu
}

// NewArray creates a zeroed rows×cols array distributed over p owners.
// Rows are split as evenly as possible.
func NewArray(rows, cols, p int) *Array {
	if rows <= 0 || cols <= 0 || p <= 0 {
		panic(fmt.Sprintf("ga: invalid array %dx%d over %d owners", rows, cols, p))
	}
	if p > rows {
		p = rows
	}
	a := &Array{Rows: rows, Cols: cols, starts: make([]int, p+1)}
	base, extra := rows/p, rows%p
	r := 0
	for i := 0; i < p; i++ {
		n := base
		if i < extra {
			n++
		}
		a.starts[i] = r
		a.segs = append(a.segs, segment{r0: r, r1: r + n, data: make([]float64, n*cols)})
		r += n
	}
	a.starts[p] = rows
	return a
}

// Owners returns the number of owner segments.
func (a *Array) Owners() int { return len(a.segs) }

// OwnerOf returns the owner segment index of the given row.
func (a *Array) OwnerOf(row int) int {
	if row < 0 || row >= a.Rows {
		panic(fmt.Sprintf("ga: row %d out of range [0,%d)", row, a.Rows))
	}
	// Binary search over starts.
	lo, hi := 0, len(a.segs)-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if a.starts[mid] <= row {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo
}

// checkPatch validates a rectangular region.
func (a *Array) checkPatch(r0, c0, nr, nc int) {
	if r0 < 0 || c0 < 0 || nr < 0 || nc < 0 || r0+nr > a.Rows || c0+nc > a.Cols {
		panic(fmt.Sprintf("ga: patch [%d:%d, %d:%d] out of %dx%d",
			r0, r0+nr, c0, c0+nc, a.Rows, a.Cols))
	}
}

// forSegments invokes f for each owner segment overlapping rows
// [r0, r0+nr), with the overlap row range, holding that segment's lock.
func (a *Array) forSegments(r0, nr int, f func(seg *segment, lo, hi int)) {
	for i := range a.segs {
		seg := &a.segs[i]
		lo, hi := seg.r0, seg.r1
		if lo < r0 {
			lo = r0
		}
		if hi > r0+nr {
			hi = r0 + nr
		}
		if lo >= hi {
			continue
		}
		seg.mu.Lock()
		f(seg, lo, hi)
		seg.mu.Unlock()
	}
}

// Get copies the patch [r0:r0+nr, c0:c0+nc] into buf (row-major,
// len >= nr*nc). One-sided: no owner participation required.
func (a *Array) Get(r0, c0, nr, nc int, buf []float64) {
	a.checkPatch(r0, c0, nr, nc)
	if len(buf) < nr*nc {
		panic("ga: Get buffer too short")
	}
	a.gets.Add(1)
	a.forSegments(r0, nr, func(seg *segment, lo, hi int) {
		for r := lo; r < hi; r++ {
			src := seg.data[(r-seg.r0)*a.Cols+c0 : (r-seg.r0)*a.Cols+c0+nc]
			copy(buf[(r-r0)*nc:(r-r0)*nc+nc], src)
		}
	})
}

// Put overwrites the patch with buf.
func (a *Array) Put(r0, c0, nr, nc int, buf []float64) {
	a.checkPatch(r0, c0, nr, nc)
	if len(buf) < nr*nc {
		panic("ga: Put buffer too short")
	}
	a.puts.Add(1)
	a.forSegments(r0, nr, func(seg *segment, lo, hi int) {
		for r := lo; r < hi; r++ {
			dst := seg.data[(r-seg.r0)*a.Cols+c0 : (r-seg.r0)*a.Cols+c0+nc]
			copy(dst, buf[(r-r0)*nc:(r-r0)*nc+nc])
		}
	})
}

// Acc atomically accumulates alpha*buf into the patch — the workhorse of
// distributed Fock assembly.
func (a *Array) Acc(r0, c0, nr, nc int, buf []float64, alpha float64) {
	a.checkPatch(r0, c0, nr, nc)
	if len(buf) < nr*nc {
		panic("ga: Acc buffer too short")
	}
	a.accs.Add(1)
	a.forSegments(r0, nr, func(seg *segment, lo, hi int) {
		for r := lo; r < hi; r++ {
			dst := seg.data[(r-seg.r0)*a.Cols+c0 : (r-seg.r0)*a.Cols+c0+nc]
			src := buf[(r-r0)*nc : (r-r0)*nc+nc]
			for j := range dst {
				dst[j] += alpha * src[j]
			}
		}
	})
}

// Zero clears the array.
func (a *Array) Zero() {
	for i := range a.segs {
		seg := &a.segs[i]
		seg.mu.Lock()
		for j := range seg.data {
			seg.data[j] = 0
		}
		seg.mu.Unlock()
	}
}

// FromMatrix overwrites the array with the contents of m.
func (a *Array) FromMatrix(m *linalg.Matrix) {
	if m.Rows != a.Rows || m.Cols != a.Cols {
		panic("ga: FromMatrix dimension mismatch")
	}
	a.Put(0, 0, a.Rows, a.Cols, m.Data)
}

// ToMatrix returns a dense snapshot of the array.
func (a *Array) ToMatrix() *linalg.Matrix {
	m := linalg.NewMatrix(a.Rows, a.Cols)
	a.Get(0, 0, a.Rows, a.Cols, m.Data)
	return m
}

// OpCounts returns the number of Get, Put and Acc operations performed,
// for overhead accounting.
func (a *Array) OpCounts() (gets, puts, accs int64) {
	return a.gets.Load(), a.puts.Load(), a.accs.Load()
}

// Counter is the shared atomic task counter (NXTVAL). The zero value is a
// counter at 0, ready to use.
type Counter struct {
	v   atomic.Int64
	ops atomic.Int64
}

// NextVal returns the next value (post-increment semantics: the first call
// returns 0).
func (c *Counter) NextVal() int64 {
	c.ops.Add(1)
	return c.v.Add(1) - 1
}

// FetchAdd adds delta and returns the pre-add value.
func (c *Counter) FetchAdd(delta int64) int64 {
	c.ops.Add(1)
	return c.v.Add(delta) - delta
}

// Ops returns the number of operations performed on the counter.
func (c *Counter) Ops() int64 { return c.ops.Load() }

// Reset sets the counter back to zero (operation counts are preserved).
func (c *Counter) Reset() { c.v.Store(0) }
