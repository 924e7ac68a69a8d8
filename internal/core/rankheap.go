package core

// rankEvent is one rank's next event in the discrete-event engines
// (runCounterSim, runStealingSim).
type rankEvent struct {
	rank int
	time float64
}

// rankHeap orders ranks by their next event time.
type rankHeap []rankEvent

func (h rankHeap) Len() int      { return len(h) }
func (h rankHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h rankHeap) Less(i, j int) bool {
	if h[i].time != h[j].time {
		return h[i].time < h[j].time
	}
	return h[i].rank < h[j].rank // deterministic tie-break
}
func (h *rankHeap) Push(x any) { *h = append(*h, x.(rankEvent)) }
func (h *rankHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}
