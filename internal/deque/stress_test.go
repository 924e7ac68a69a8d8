package deque

import (
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
)

// TestStealHalfRaceStress hammers StealHalf against concurrent owner
// Push/Pop from many goroutines and asserts conservation: every task ID
// is consumed exactly once — none lost in a steal window, none
// duplicated. Run under -race this doubles as the memory-model audit of
// the deque (see `make race` and CI).
func TestStealHalfRaceStress(t *testing.T) {
	const (
		workers   = 8
		perWorker = 4000
		total     = workers * perWorker
	)
	deques := make([]*Deque, workers)
	for i := range deques {
		deques[i] = new(Deque)
	}

	var remaining atomic.Int64
	remaining.Store(total)
	consumed := make([][]int, workers) // written only by the owning goroutine

	var wg sync.WaitGroup
	for wk := 0; wk < workers; wk++ {
		wg.Add(1)
		go func(wk int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(wk) + 1))
			next := wk * perWorker // next own ID to publish
			end := next + perWorker
			for {
				// Publish own IDs in small batches so thieves race the
				// producer, not just the consumer.
				if next < end {
					batch := min(1+rng.Intn(16), end-next)
					if batch == 1 {
						deques[wk].Push(next)
					} else {
						ids := make([]int, batch)
						for i := range ids {
							ids[i] = next + i
						}
						deques[wk].PushBatch(ids)
					}
					next += batch
				}
				// Drain a little from the owner side.
				for i := 0; i < 8; i++ {
					id, ok := deques[wk].Pop()
					if !ok {
						break
					}
					consumed[wk] = append(consumed[wk], id)
					remaining.Add(-1)
				}
				if next < end {
					continue
				}
				if remaining.Load() == 0 {
					return
				}
				// Out of local work: steal in bulk, racing the victim's
				// Pop/Push.
				victim := rng.Intn(workers)
				if victim == wk {
					continue
				}
				if loot := deques[victim].StealHalf(); loot != nil {
					deques[wk].PushBatch(loot)
				}
			}
		}(wk)
	}
	wg.Wait()

	var all []int
	for _, c := range consumed {
		all = append(all, c...)
	}
	if len(all) != total {
		t.Fatalf("consumed %d task IDs, want %d", len(all), total)
	}
	sort.Ints(all)
	for i, id := range all {
		if id != i {
			t.Fatalf("task ID conservation broken at index %d: got %d (lost or duplicated)", i, id)
		}
	}
	for i, d := range deques {
		if id, ok := d.Pop(); ok {
			t.Errorf("deque %d not drained: task %d left", i, id)
		}
	}
}
