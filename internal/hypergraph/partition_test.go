package hypergraph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestAddNetDedupAndDropSingletons(t *testing.T) {
	h := New(4)
	h.AddNet(1, 0, 0, 0) // collapses to one pin → dropped
	h.AddNet(1, 1, 2, 1)
	if len(h.Nets) != 1 {
		t.Fatalf("%d nets", len(h.Nets))
	}
	if len(h.Nets[0]) != 2 {
		t.Fatalf("net pins %v", h.Nets[0])
	}
}

func TestAddNetBadPinPanics(t *testing.T) {
	h := New(2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	h.AddNet(1, 0, 5)
}

func TestConnectivityCutKnown(t *testing.T) {
	h := New(4)
	h.AddNet(2, 0, 1)       // within part 0 if part = {0,0,1,1}
	h.AddNet(3, 1, 2)       // spans both parts: contributes 3
	h.AddNet(5, 0, 1, 2, 3) // spans both: contributes 5
	part := []int{0, 0, 1, 1}
	if got := ConnectivityCut(h, part, 2); got != 8 {
		t.Fatalf("cut = %v, want 8", got)
	}
}

func TestConnectivityCutThreeParts(t *testing.T) {
	h := New(3)
	h.AddNet(1, 0, 1, 2)
	part := []int{0, 1, 2}
	// λ = 3 → (λ-1)·w = 2.
	if got := ConnectivityCut(h, part, 3); got != 2 {
		t.Fatalf("cut = %v, want 2", got)
	}
}

func TestImbalance(t *testing.T) {
	h := New(4)
	h.VWeights = []float64{3, 1, 1, 1}
	part := []int{0, 1, 1, 1}
	// Loads {3,3}, avg 3 → imbalance 0.
	if got := Imbalance(h, part, 2); got != 0 {
		t.Fatalf("imbalance = %v", got)
	}
	part = []int{0, 0, 0, 0}
	// Loads {6,0}, avg 3 → imbalance 1.
	if got := Imbalance(h, part, 2); got != 1 {
		t.Fatalf("imbalance = %v", got)
	}
}

// Two dense clusters joined by a single net: the partitioner must find
// the obvious split (cut = weight of the bridge).
func TestPartitionFindsClusters(t *testing.T) {
	h := New(20)
	rng := rand.New(rand.NewSource(1))
	for c := 0; c < 2; c++ {
		base := c * 10
		for i := 0; i < 30; i++ {
			a, b := base+rng.Intn(10), base+rng.Intn(10)
			if a != b {
				h.AddNet(1, a, b)
			}
		}
	}
	h.AddNet(1, 3, 13) // the only bridge
	res := Partition(h, 2, Options{Seed: 7})
	if res.Cut > 3 {
		t.Fatalf("cut = %v; clusters not separated (part %v)", res.Cut, res.Part)
	}
	if res.Imbalance > 0.051 {
		t.Fatalf("imbalance %v exceeds eps", res.Imbalance)
	}
}

func TestPartitionBalanceRandom(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 30 + rng.Intn(100)
		k := 2 + rng.Intn(6)
		h := New(n)
		for i := range h.VWeights {
			h.VWeights[i] = 1 + rng.Float64()*4
		}
		for e := 0; e < 3*n; e++ {
			a, b := rng.Intn(n), rng.Intn(n)
			if a != b {
				h.AddNet(1+rng.Float64(), a, b)
			}
		}
		res := Partition(h, k, Options{Seed: seed, Eps: 0.10})
		// Every vertex in range; imbalance within slack plus the
		// unavoidable granularity of the heaviest vertex.
		for _, p := range res.Part {
			if p < 0 || p >= k {
				return false
			}
		}
		var wmax float64
		for _, w := range h.VWeights {
			if w > wmax {
				wmax = w
			}
		}
		avg := h.TotalVertexWeight() / float64(k)
		return res.Imbalance <= 0.10+wmax/avg
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// The reported cut must equal an independent recomputation.
func TestPartitionCutConsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	h := New(60)
	for e := 0; e < 200; e++ {
		pins := []int{rng.Intn(60), rng.Intn(60), rng.Intn(60)}
		h.AddNet(rng.Float64()+0.5, pins...)
	}
	res := Partition(h, 4, Options{Seed: 11})
	if got := ConnectivityCut(h, res.Part, 4); got != res.Cut {
		t.Fatalf("reported cut %v != recomputed %v", res.Cut, got)
	}
}

func TestPartitionK1(t *testing.T) {
	h := New(5)
	h.AddNet(1, 0, 1)
	res := Partition(h, 1, Options{})
	if res.Cut != 0 {
		t.Fatalf("k=1 cut %v", res.Cut)
	}
	for _, p := range res.Part {
		if p != 0 {
			t.Fatal("k=1 must put everything in part 0")
		}
	}
}

func TestPartitionBadKPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Partition(New(3), 0, Options{})
}

func TestPartitionDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	h := New(50)
	for e := 0; e < 150; e++ {
		a, b := rng.Intn(50), rng.Intn(50)
		if a != b {
			h.AddNet(1, a, b)
		}
	}
	r1 := Partition(h, 3, Options{Seed: 42})
	r2 := Partition(h, 3, Options{Seed: 42})
	for i := range r1.Part {
		if r1.Part[i] != r2.Part[i] {
			t.Fatal("same seed produced different partitions")
		}
	}
}

func TestCoarsenPreservesWeight(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	h := New(80)
	for i := range h.VWeights {
		h.VWeights[i] = 1 + rng.Float64()
	}
	for e := 0; e < 300; e++ {
		a, b := rng.Intn(80), rng.Intn(80)
		if a != b {
			h.AddNet(1, a, b)
		}
	}
	coarse, vmap, ok := coarsen(h, rng)
	if !ok {
		t.Skip("no contraction found")
	}
	if got, want := coarse.TotalVertexWeight(), h.TotalVertexWeight(); got < want-1e-9 || got > want+1e-9 {
		t.Fatalf("weight %v != %v", got, want)
	}
	for v, cv := range vmap {
		if cv < 0 || cv >= coarse.NumVertices() {
			t.Fatalf("vertex %d maps to %d", v, cv)
		}
	}
	if coarse.NumVertices() >= h.NumVertices() {
		t.Fatal("coarsening did not shrink")
	}
}
