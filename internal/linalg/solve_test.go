package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSolveKnown(t *testing.T) {
	a := NewMatrixFrom(2, 2, []float64{2, 1, 1, 3})
	x, ok := Solve(a, []float64{5, 10})
	if !ok {
		t.Fatal("solver failed")
	}
	if math.Abs(x[0]-1) > 1e-12 || math.Abs(x[1]-3) > 1e-12 {
		t.Fatalf("x = %v, want [1 3]", x)
	}
}

func TestSolveSingular(t *testing.T) {
	a := NewMatrixFrom(2, 2, []float64{1, 2, 2, 4})
	if _, ok := Solve(a, []float64{1, 2}); ok {
		t.Fatal("singular system accepted")
	}
}

func TestSolveDoesNotModifyInputs(t *testing.T) {
	a := NewMatrixFrom(2, 2, []float64{4, 1, 1, 3})
	b := []float64{1, 2}
	Solve(a, b)
	if a.At(0, 0) != 4 || b[1] != 2 {
		t.Fatal("Solve modified its inputs")
	}
}

// Property: Solve then multiply back reproduces b.
func TestSolveResidual(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(12)
		a := randomMatrix(rng, n, n)
		// Diagonal boost keeps conditioning reasonable.
		for i := 0; i < n; i++ {
			a.Add(i, i, 5)
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		x, ok := Solve(a, b)
		if !ok {
			return false
		}
		r := MatMul(a, NewMatrixFrom(n, 1, x))
		for i := range b {
			if math.Abs(r.At(i, 0)-b[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSolveDimensionPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Solve(NewMatrix(2, 3), []float64{1, 2})
}
