package semimatching

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestCompleteGraphShape(t *testing.T) {
	b := Complete(6, 3)
	if b.NLeft != 6 || b.NRight != 3 {
		t.Fatalf("bad sizes")
	}
	for l := 0; l < 6; l++ {
		if len(b.Adj[l]) != 3 {
			t.Fatalf("task %d has %d edges", l, len(b.Adj[l]))
		}
	}
}

func TestAddEdgeDeduplicates(t *testing.T) {
	b := NewBipartite(1, 2)
	b.AddEdge(0, 1)
	b.AddEdge(0, 1)
	if len(b.Adj[0]) != 1 {
		t.Fatalf("duplicate edge stored")
	}
}

func TestAddEdgeOutOfRangePanics(t *testing.T) {
	b := NewBipartite(1, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	b.AddEdge(0, 1)
}

// A task with no candidate machine cannot be placed: both entry points
// refuse the graph before assigning anything.
func TestSemiMatchNoCandidatesPanics(t *testing.T) {
	for name, assign := range map[string]func(*Bipartite, []float64) *Assignment{
		"LPT": LPT, "WeightedSemiMatch": WeightedSemiMatch,
	} {
		b := NewBipartite(2, 2)
		b.AddEdge(0, 0)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic for isolated task", name)
				}
			}()
			assign(b, []float64{1, 1})
		}()
	}
}

func TestLPTComplete(t *testing.T) {
	// Weights 5,4,3,2,2 on 2 machines: LPT places 5|4, 3→(4), 2→(5), 2→(7)
	// giving loads {9,7}; the optimum is {5,3}|{4,2,2} = 8. The swap
	// refinement in WeightedSemiMatch must recover the optimum.
	b := Complete(5, 2)
	w := []float64{5, 4, 3, 2, 2}
	a := LPT(b, w)
	if a.Makespan() != 9 {
		t.Fatalf("LPT makespan = %v, loads %v", a.Makespan(), a.Loads)
	}
	r := WeightedSemiMatch(b, w)
	if r.Makespan() != 8 {
		t.Fatalf("refined makespan = %v, loads %v, want 8", r.Makespan(), r.Loads)
	}
}

func TestLPTWeightMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	LPT(Complete(3, 2), []float64{1, 2})
}

func TestWeightedSemiMatchRespectsEdges(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nl, nr := 1+rng.Intn(30), 1+rng.Intn(6)
		b := NewBipartite(nl, nr)
		w := make([]float64, nl)
		for l := 0; l < nl; l++ {
			w[l] = rng.Float64()*9 + 1
			deg := 1 + rng.Intn(nr)
			perm := rng.Perm(nr)
			for _, r := range perm[:deg] {
				b.AddEdge(l, r)
			}
		}
		a := WeightedSemiMatch(b, w)
		loads := make([]float64, nr)
		for l, r := range a.Of {
			if !canRun(b, l, r) {
				return false
			}
			loads[r] += w[l]
		}
		for r := range loads {
			if math.Abs(loads[r]-a.Loads[r]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// On complete graphs the refined result must always be at least as good
// as plain LPT, and within the classical LPT bound of the trivial lower
// bounds.
func TestWeightedSemiMatchQuality(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 30; trial++ {
		nl, nr := 10+rng.Intn(90), 2+rng.Intn(6)
		b := Complete(nl, nr)
		w := make([]float64, nl)
		var total, wmax float64
		for i := range w {
			w[i] = math.Exp(rng.NormFloat64() * 1.5) // heavy-tailed, like ERI tasks
			total += w[i]
			wmax = math.Max(wmax, w[i])
		}
		lpt := LPT(b, w)
		ref := WeightedSemiMatch(b, w)
		if ref.Makespan() > lpt.Makespan()+1e-9 {
			t.Fatalf("refinement regressed: %v > %v", ref.Makespan(), lpt.Makespan())
		}
		lb := math.Max(total/float64(nr), wmax)
		if ref.Makespan() > lb*4/3+wmax {
			t.Fatalf("makespan %v too far above lower bound %v", ref.Makespan(), lb)
		}
	}
}

// Refinement must fix a case plain greedy-by-order would botch but LPT
// plus moves handles: bottleneck machine sheds work over restricted edges.
func TestWeightedSemiMatchMovesOffBottleneck(t *testing.T) {
	// Machine 0 initially attracts everything; tasks 2 and 3 can migrate.
	b := NewBipartite(4, 2)
	w := []float64{6, 5, 4, 3}
	b.AddEdge(0, 0)
	b.AddEdge(1, 0)
	b.AddEdge(2, 0)
	b.AddEdge(2, 1)
	b.AddEdge(3, 0)
	b.AddEdge(3, 1)
	a := WeightedSemiMatch(b, w)
	// Optimal: {6,5} on 0 and {4,3} on 1 → makespan 11.
	if a.Makespan() > 11+1e-9 {
		t.Fatalf("makespan %v, loads %v", a.Makespan(), a.Loads)
	}
}

func TestAssignmentAggregates(t *testing.T) {
	a := &Assignment{Of: []int{0, 0, 1}, Loads: []float64{2, 1}}
	if a.Makespan() != 2 {
		t.Fatal("Makespan")
	}
}
