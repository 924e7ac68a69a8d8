// Package deque implements the work-stealing double-ended queue used by
// the work-stealing execution model: the owner pushes and pops task IDs at
// the bottom without contention in the common case, while thieves steal
// from the top.
//
// The implementation is a mutex-sharded variant of the Chase–Lev deque:
// owner operations and steals synchronize on a single mutex, but the fast
// path (owner pop with a non-empty queue) holds it only briefly. For the
// task granularities in this study (tasks are whole ERI blocks, ≫ 1µs)
// lock cost is negligible, and the mutex gives us StealHalf — which the
// lock-free Chase–Lev algorithm cannot express — matching the bulk-steal
// policy the paper's runtime uses.
package deque

import "sync"

// Deque is a double-ended work queue of task IDs. It is safe for
// concurrent use. The zero value is an empty, usable deque.
type Deque struct {
	mu    sync.Mutex
	items []int // guarded by mu
	head  int   // guarded by mu; index of the oldest (top) item; items[:head] are consumed
}

// Push adds a task at the bottom (owner side).
func (d *Deque) Push(id int) {
	d.mu.Lock()
	d.items = append(d.items, id)
	d.mu.Unlock()
}

// PushBatch adds several tasks at the bottom in order.
func (d *Deque) PushBatch(ids []int) {
	d.mu.Lock()
	d.items = append(d.items, ids...) //lint:ignore allocfree deque growth is amortized: the backing array doubles a bounded number of times per build, not per task
	d.mu.Unlock()
}

// Pop removes and returns the bottom task (owner side, LIFO). It reports
// false if the deque is empty.
func (d *Deque) Pop() (int, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.head >= len(d.items) {
		return 0, false
	}
	id := d.items[len(d.items)-1]
	d.items = d.items[:len(d.items)-1]
	d.maybeCompact()
	return id, true
}

// StealHalf removes and returns up to half of the queued tasks (rounded
// up, at least one) from the top. It returns nil if the deque is empty.
func (d *Deque) StealHalf() []int {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := len(d.items) - d.head
	if n <= 0 {
		return nil
	}
	take := (n + 1) / 2
	out := make([]int, take) //lint:ignore allocfree steal-transfer buffer: one allocation per successful steal, amortized over the half-deque of tasks it moves
	copy(out, d.items[d.head:d.head+take])
	d.head += take
	d.maybeCompact()
	return out
}

// maybeCompact reclaims consumed prefix space; called with mu held.
func (d *Deque) maybeCompact() {
	if d.head > 64 && d.head*2 >= len(d.items) {
		d.items = append(d.items[:0], d.items[d.head:]...) //lint:ignore allocfree compaction appends into items[:0], whose capacity always suffices — no growth happens
		d.head = 0
	}
}
