// Package mp is a small message-passing runtime over goroutines — the
// MPI analog of the paper's execution stack. A World spawns P ranks, each
// a goroutine holding a Comm handle with point-to-point Send/Recv (by
// rank and tag) and the collectives the SCF application needs: Barrier,
// Broadcast, AllReduceSum and Gather.
//
// It exists so the repository can run the *distributed-memory* flavour of
// each execution model for real (the distributed Fock executors in
// internal/core/distributed.go), not just in simulation: ranks own data,
// everything moves through messages, and the semantics match what an
// MPI+Global-Arrays code does.
package mp

import (
	"fmt"
	"sync"

	"execmodels/internal/obs"
)

// message is one point-to-point payload in flight.
type message struct {
	from, tag int
	data      []float64
}

// World is a group of ranks connected all-to-all.
type World struct {
	P int
	// inbox[rank] receives messages for that rank; a buffered channel per
	// rank keeps senders non-blocking up to the cap.
	inbox []chan message

	barrier *barrier

	mu      sync.Mutex
	metrics *obs.Registry // guarded by mu; see metrics.go
}

// NewWorld creates a world with p ranks.
func NewWorld(p int) *World {
	if p < 1 {
		panic(fmt.Sprintf("mp: world size %d", p))
	}
	w := &World{P: p, barrier: newBarrier(p)}
	w.inbox = make([]chan message, p)
	for i := range w.inbox {
		w.inbox[i] = make(chan message, 64*p)
	}
	return w
}

// Run spawns fn on every rank and waits for all to return. Each rank gets
// its own Comm. Panics in ranks propagate after all ranks finish or hang
// is avoided by the panicking rank's buffered channels.
func (w *World) Run(fn func(c *Comm)) {
	var wg sync.WaitGroup
	for r := 0; r < w.P; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			fn(&Comm{world: w, rank: r})
		}(r)
	}
	wg.Wait()
}

// Comm is one rank's endpoint into the world.
type Comm struct {
	world *World
	rank  int
	// pending holds messages received out of order (wrong tag/source),
	// parked until a matching Recv arrives.
	pending []message
}

// Rank returns this rank's index.
func (c *Comm) Rank() int { return c.rank }

// Size returns the world size.
func (c *Comm) Size() int { return c.world.P }

// Send delivers data to rank dst under the given tag. The data slice is
// copied, so the caller may reuse it immediately.
func (c *Comm) Send(dst, tag int, data []float64) {
	if dst < 0 || dst >= c.world.P {
		panic(fmt.Sprintf("mp: send to rank %d of %d", dst, c.world.P))
	}
	c.world.countSend(c.rank, len(data))
	cp := make([]float64, len(data))
	copy(cp, data)
	c.world.inbox[dst] <- message{from: c.rank, tag: tag, data: cp}
}

// Recv blocks until a message from rank src with the given tag arrives
// and returns its payload. Pass AnySource (or AnyTag) to match any sender
// (or any tag). Out-of-order messages are parked and matched later.
func (c *Comm) Recv(src, tag int) (data []float64, from int) {
	// Check parked messages first.
	for i, m := range c.pending {
		if matches(m, src, tag) {
			c.pending = append(c.pending[:i], c.pending[i+1:]...)
			return m.data, m.from
		}
	}
	for {
		m := <-c.world.inbox[c.rank]
		if matches(m, src, tag) {
			return m.data, m.from
		}
		c.pending = append(c.pending, m)
	}
}

// AnySource and AnyTag are wildcards for Recv.
const (
	AnySource = -1
	AnyTag    = -1
)

func matches(m message, src, tag int) bool {
	return (src == AnySource || m.from == src) && (tag == AnyTag || m.tag == tag)
}

// Barrier blocks until every rank has entered it.
func (c *Comm) Barrier() { c.world.barrier.await() }

// Broadcast distributes root's buf to every rank: on the root, buf is
// sent; on others, the returned slice holds the received data (buf is
// ignored and may be nil).
func (c *Comm) Broadcast(root int, buf []float64) []float64 {
	const tag = -1000 // reserved internal tag
	if c.rank == root {
		for r := 0; r < c.world.P; r++ {
			if r != c.rank {
				c.Send(r, tag, buf)
			}
		}
		return buf
	}
	data, _ := c.Recv(root, tag)
	return data
}

// AllReduceSum element-wise sums buf across all ranks; every rank returns
// the full sum. Gather-to-root then broadcast (correctness over cleverness
// — this runtime measures semantics, not network topology).
func (c *Comm) AllReduceSum(buf []float64) []float64 {
	const tag = -1001
	root := 0
	if c.rank == root {
		sum := make([]float64, len(buf))
		copy(sum, buf)
		// Receive from each rank specifically: per-sender channel FIFO
		// then guarantees that consecutive collectives cannot cross
		// epochs (an AnySource loop could consume one rank's next-epoch
		// contribution while another rank's current one is still queued).
		for r := 1; r < c.world.P; r++ {
			data, _ := c.Recv(r, tag)
			if len(data) != len(sum) {
				panic(fmt.Sprintf("mp: allreduce length mismatch %d vs %d", len(data), len(sum)))
			}
			for j, v := range data {
				sum[j] += v
			}
		}
		return c.Broadcast(root, sum)
	}
	c.Send(root, tag, buf)
	return c.Broadcast(root, nil)
}

// Gather collects every rank's buf at the root, concatenated in rank
// order. Non-root ranks return nil.
func (c *Comm) Gather(root int, buf []float64) [][]float64 {
	const tag = -1002
	if c.rank != root {
		c.Send(root, tag, buf)
		return nil
	}
	out := make([][]float64, c.world.P)
	out[c.rank] = append([]float64(nil), buf...)
	// Rank-specific receives; see AllReduceSum for why AnySource would be
	// wrong across consecutive collectives.
	for r := 0; r < c.world.P; r++ {
		if r == root {
			continue
		}
		data, _ := c.Recv(r, tag)
		out[r] = data
	}
	return out
}

// barrier is a reusable P-party barrier.
type barrier struct {
	mu      sync.Mutex
	cond    *sync.Cond
	parties int
	count   int // guarded by mu
	phase   int // guarded by mu
}

func newBarrier(parties int) *barrier {
	b := &barrier{parties: parties}
	b.cond = sync.NewCond(&b.mu)
	return b
}

func (b *barrier) await() {
	b.mu.Lock()
	defer b.mu.Unlock()
	phase := b.phase
	b.count++
	if b.count == b.parties {
		b.count = 0
		b.phase++
		b.cond.Broadcast()
		return
	}
	for phase == b.phase {
		b.cond.Wait()
	}
}
