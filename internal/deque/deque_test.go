package deque

import (
	"sync"
	"testing"
)

func TestPushPopLIFO(t *testing.T) {
	var d Deque
	d.Push(1)
	d.Push(2)
	d.Push(3)
	for want := 3; want >= 1; want-- {
		got, ok := d.Pop()
		if !ok || got != want {
			t.Fatalf("Pop = %d,%v want %d", got, ok, want)
		}
	}
	if _, ok := d.Pop(); ok {
		t.Fatal("Pop from empty succeeded")
	}
}

func TestOppositeEnds(t *testing.T) {
	var d Deque
	d.PushBatch([]int{1, 2, 3, 4, 5})
	if got := d.StealHalf(); len(got) != 3 || got[0] != 1 || got[2] != 3 {
		t.Fatalf("StealHalf = %v", got)
	}
	if v, _ := d.Pop(); v != 5 {
		t.Fatalf("Pop = %d", v)
	}
	if v, _ := d.Pop(); v != 4 {
		t.Fatalf("Pop = %d", v)
	}
	if _, ok := d.Pop(); ok {
		t.Fatal("Pop after both ends drained succeeded")
	}
}

func TestStealHalf(t *testing.T) {
	var d Deque
	d.PushBatch([]int{1, 2, 3, 4, 5})
	got := d.StealHalf()
	if len(got) != 3 { // ceil(5/2)
		t.Fatalf("StealHalf took %d", len(got))
	}
	for i, want := range []int{1, 2, 3} {
		if got[i] != want {
			t.Fatalf("StealHalf[%d] = %d", i, got[i])
		}
	}
	if got := d.StealHalf(); len(got) != 1 || got[0] != 4 {
		t.Fatalf("second StealHalf = %v", got)
	}
	if v, ok := d.Pop(); !ok || v != 5 {
		t.Fatalf("Pop = %d,%v want 5", v, ok)
	}
}

func TestStealHalfEmpty(t *testing.T) {
	var d Deque
	if got := d.StealHalf(); got != nil {
		t.Fatalf("StealHalf on empty = %v", got)
	}
}

func TestStealHalfSingle(t *testing.T) {
	var d Deque
	d.Push(9)
	got := d.StealHalf()
	if len(got) != 1 || got[0] != 9 {
		t.Fatalf("StealHalf = %v", got)
	}
}

// All pushed items must be consumed exactly once under concurrent
// owner pops and thief steals.
func TestConcurrentNoLossNoDup(t *testing.T) {
	var d Deque
	const n = 10000
	seen := make([]int32, n)
	var mu sync.Mutex
	mark := func(id int) {
		mu.Lock()
		seen[id]++
		mu.Unlock()
	}

	var wg sync.WaitGroup
	// Owner: pushes everything, then pops.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			d.Push(i)
		}
		for {
			id, ok := d.Pop()
			if !ok {
				return
			}
			mark(id)
		}
	}()
	// Thieves: steal batches.
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < n; i++ {
				for _, id := range d.StealHalf() {
					mark(id)
				}
			}
		}()
	}
	wg.Wait()
	// Anything left (thieves may exit early) is drained here.
	for {
		id, ok := d.Pop()
		if !ok {
			break
		}
		mark(id)
	}
	for id, c := range seen {
		if c != 1 {
			t.Fatalf("task %d consumed %d times", id, c)
		}
	}
}

func TestCompactionKeepsContents(t *testing.T) {
	var d Deque
	// Drive head far past the compaction threshold, several times over:
	// each StealHalf takes the older half, so the loot stays in order.
	for i := 0; i < 1000; i++ {
		d.Push(i)
	}
	next := 0
	for loot := d.StealHalf(); loot != nil; loot = d.StealHalf() {
		for _, got := range loot {
			if got != next {
				t.Fatalf("StealHalf yielded %d, want %d", got, next)
			}
			next++
		}
	}
	if next != 1000 {
		t.Fatalf("stole %d tasks, want 1000", next)
	}
}
