package linalg

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func randomMatrix(rng *rand.Rand, r, c int) *Matrix {
	m := NewMatrix(r, c)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

func TestMatMulKnown(t *testing.T) {
	a := NewMatrixFrom(2, 3, []float64{1, 2, 3, 4, 5, 6})
	b := NewMatrixFrom(3, 2, []float64{7, 8, 9, 10, 11, 12})
	c := MatMul(a, b)
	want := NewMatrixFrom(2, 2, []float64{58, 64, 139, 154})
	if c.MaxAbsDiff(want) > 1e-12 {
		t.Fatalf("MatMul wrong:\n%v", c)
	}
}

func TestMatMulIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := randomMatrix(rng, 5, 5)
	if MatMul(a, Identity(5)).MaxAbsDiff(a) > 1e-12 {
		t.Fatal("a*I != a")
	}
	if MatMul(Identity(5), a).MaxAbsDiff(a) > 1e-12 {
		t.Fatal("I*a != a")
	}
}

func TestMatMulDimensionPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MatMul(NewMatrix(2, 3), NewMatrix(2, 3))
}

func TestGemmBeta(t *testing.T) {
	a := NewMatrixFrom(2, 2, []float64{1, 0, 0, 1})
	b := NewMatrixFrom(2, 2, []float64{1, 2, 3, 4})
	c := NewMatrixFrom(2, 2, []float64{10, 10, 10, 10})
	Gemm(2, a, b, 0.5, c) // c = 2*I*b + 0.5*c
	want := NewMatrixFrom(2, 2, []float64{7, 9, 11, 13})
	if c.MaxAbsDiff(want) > 1e-12 {
		t.Fatalf("Gemm beta wrong:\n%v", c)
	}
}

// Property: (a*b)ᵀ == bᵀ*aᵀ.
func TestMatMulTransposeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n, k, m := 1+rng.Intn(6), 1+rng.Intn(6), 1+rng.Intn(6)
		a := randomMatrix(rng, n, k)
		b := randomMatrix(rng, k, m)
		left := MatMul(a, b).Transpose()
		right := MatMul(b.Transpose(), a.Transpose())
		return left.MaxAbsDiff(right) < 1e-10
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: matrix multiplication is associative.
func TestMatMulAssociative(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(6)
		a, b, c := randomMatrix(rng, n, n), randomMatrix(rng, n, n), randomMatrix(rng, n, n)
		return MatMul(MatMul(a, b), c).MaxAbsDiff(MatMul(a, MatMul(b, c))) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDot(t *testing.T) {
	if got := Dot([]float64{1, 2, 3}, []float64{4, 5, 6}); got != 32 {
		t.Fatalf("Dot = %v, want 32", got)
	}
}

func TestTripleProductSymmetryPreserved(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	b := randomMatrix(rng, 4, 4)
	b.Symmetrize()
	a := randomMatrix(rng, 4, 4)
	p := TripleProduct(a, b)
	if p.MaxAbsDiff(p.Transpose()) > 1e-10 {
		t.Fatal("aᵀ b a lost symmetry")
	}
}
