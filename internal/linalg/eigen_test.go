package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randomSymmetric(rng *rand.Rand, n int) *Matrix {
	m := randomMatrix(rng, n, n)
	m.Symmetrize()
	return m
}

func TestEigenSymDiagonal(t *testing.T) {
	m := NewMatrix(3, 3)
	m.Set(0, 0, 3)
	m.Set(1, 1, 1)
	m.Set(2, 2, 2)
	vals, vecs := EigenSym(m)
	want := []float64{1, 2, 3}
	for i := range want {
		if math.Abs(vals[i]-want[i]) > 1e-12 {
			t.Fatalf("vals = %v", vals)
		}
	}
	// Eigenvectors of a diagonal matrix are (signed) unit vectors.
	for k := 0; k < 3; k++ {
		var nnz int
		for i := 0; i < 3; i++ {
			if math.Abs(vecs.At(i, k)) > 1e-10 {
				nnz++
			}
		}
		if nnz != 1 {
			t.Fatalf("eigenvector %d not axis-aligned:\n%v", k, vecs)
		}
	}
}

func TestEigenSymKnown2x2(t *testing.T) {
	// [[2,1],[1,2]] has eigenvalues 1 and 3.
	m := NewMatrixFrom(2, 2, []float64{2, 1, 1, 2})
	vals, _ := EigenSym(m)
	if math.Abs(vals[0]-1) > 1e-12 || math.Abs(vals[1]-3) > 1e-12 {
		t.Fatalf("vals = %v, want [1 3]", vals)
	}
}

// Property: A v_k = λ_k v_k and the eigenvector matrix is orthonormal.
func TestEigenSymReconstruction(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(8)
		a := randomSymmetric(rng, n)
		vals, vecs := EigenSym(a)

		// Orthonormality: vecsᵀ vecs == I.
		if MatMul(vecs.Transpose(), vecs).MaxAbsDiff(Identity(n)) > 1e-8 {
			return false
		}
		// Reconstruction: vecs * diag(vals) * vecsᵀ == a.
		d := NewMatrix(n, n)
		for i, v := range vals {
			d.Set(i, i, v)
		}
		rec := MatMul(vecs, MatMul(d, vecs.Transpose()))
		return rec.MaxAbsDiff(a) < 1e-8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestEigenSymValuesSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := randomSymmetric(rng, 10)
	vals, _ := EigenSym(a)
	for i := 1; i < len(vals); i++ {
		if vals[i] < vals[i-1] {
			t.Fatalf("eigenvalues not ascending: %v", vals)
		}
	}
}

func TestEigenSymTracePreserved(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := randomSymmetric(rng, 7)
	vals, _ := EigenSym(a)
	var sum, trace float64
	for i, v := range vals {
		sum += v
		trace += a.At(i, i)
	}
	if math.Abs(sum-trace) > 1e-9 {
		t.Fatalf("eigenvalue sum %v != trace %v", sum, trace)
	}
}

func TestInvSqrtSym(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	// Build an SPD matrix a = bᵀb + I.
	b := randomMatrix(rng, 5, 5)
	a := MatMul(b.Transpose(), b)
	for i := 0; i < 5; i++ {
		a.Add(i, i, 1)
	}
	x := InvSqrtSym(a, 1e-12)
	// x a x should be the identity.
	if TripleProduct(x, a).MaxAbsDiff(Identity(5)) > 1e-8 {
		t.Fatal("s^{-1/2} s s^{-1/2} != I")
	}
}

func TestInvSqrtSymFloorClamps(t *testing.T) {
	// Nearly singular matrix: eigenvalues 1 and 1e-20.
	m := NewMatrix(2, 2)
	m.Set(0, 0, 1)
	m.Set(1, 1, 1e-20)
	x := InvSqrtSym(m, 1e-10)
	// Without clamping the (1,1) entry would be 1e10; with floor it is 1e5.
	if x.At(1, 1) > 1.1e5 {
		t.Fatalf("floor not applied: %v", x.At(1, 1))
	}
}

func TestEigenSymNonSquarePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	EigenSym(NewMatrix(2, 3))
}
