package core

import (
	"sync"
	"testing"
)

// bumpSlots runs one goroutine per slot, each hammering only its own
// counter — exactly the wall executors' per-worker access pattern.
func bumpSlots(workers, bumps int, bump func(wk int)) {
	var wg sync.WaitGroup
	for wk := 0; wk < workers; wk++ {
		wg.Add(1)
		go func(wk int) {
			defer wg.Done()
			for i := 0; i < bumps; i++ {
				bump(wk)
			}
		}(wk)
	}
	wg.Wait()
}

// cursorBumps is the per-worker increment count for the false-sharing
// benchmarks below.
const cursorBumps = 1 << 16

// BenchmarkCursorFalseSharing measures the layout the wall executors
// used before per-worker state was padded: adjacent int64 cursors share
// a cache line, so every bump by one worker invalidates the line under
// its neighbours. Compare with BenchmarkCursorPadded — on a multi-core
// host the packed variant is several times slower; on a single-core
// host the two converge (no cross-core invalidation), which is itself a
// useful datum when reading wall timings taken on such a host.
func BenchmarkCursorFalseSharing(b *testing.B) {
	const workers = 4
	cursors := make([]int64, workers) // packed: all four share a line
	for i := 0; i < b.N; i++ {
		bumpSlots(workers, cursorBumps, func(wk int) { cursors[wk]++ })
	}
}

// BenchmarkCursorPadded is the fixed layout: one padCell per worker,
// each owning a full cache line.
func BenchmarkCursorPadded(b *testing.B) {
	const workers = 4
	cursors := make([]padCell, workers)
	for i := 0; i < b.N; i++ {
		bumpSlots(workers, cursorBumps, func(wk int) { cursors[wk].n++ })
	}
}
