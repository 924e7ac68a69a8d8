package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewMatrixZeroed(t *testing.T) {
	m := NewMatrix(3, 4)
	if m.Rows != 3 || m.Cols != 4 || len(m.Data) != 12 {
		t.Fatalf("bad shape: %+v", m)
	}
	for i, v := range m.Data {
		if v != 0 {
			t.Fatalf("Data[%d] = %v, want 0", i, v)
		}
	}
}

func TestNewMatrixFromCopies(t *testing.T) {
	src := []float64{1, 2, 3, 4}
	m := NewMatrixFrom(2, 2, src)
	src[0] = 99
	if m.At(0, 0) != 1 {
		t.Fatalf("NewMatrixFrom aliased input: got %v", m.At(0, 0))
	}
}

func TestNewMatrixFromBadLength(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for mismatched length")
		}
	}()
	NewMatrixFrom(2, 2, []float64{1, 2, 3})
}

func TestAtSetAdd(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(1, 2, 5)
	m.Add(1, 2, 2.5)
	if got := m.At(1, 2); got != 7.5 {
		t.Fatalf("At(1,2) = %v, want 7.5", got)
	}
	if got := m.At(0, 0); got != 0 {
		t.Fatalf("At(0,0) = %v, want 0", got)
	}
}

func TestIdentity(t *testing.T) {
	m := Identity(4)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if m.At(i, j) != want {
				t.Fatalf("I[%d][%d] = %v", i, j, m.At(i, j))
			}
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	m := NewMatrixFrom(2, 2, []float64{1, 2, 3, 4})
	c := m.Clone()
	c.Set(0, 0, -1)
	if m.At(0, 0) != 1 {
		t.Fatal("Clone shares storage with original")
	}
}

func TestScaleAddScaled(t *testing.T) {
	a := NewMatrixFrom(2, 2, []float64{1, 2, 3, 4})
	b := NewMatrixFrom(2, 2, []float64{10, 20, 30, 40})
	a.Scale(2).AddScaled(0.1, b)
	want := []float64{3, 6, 9, 12}
	for i := range want {
		if math.Abs(a.Data[i]-want[i]) > 1e-12 {
			t.Fatalf("Data[%d] = %v, want %v", i, a.Data[i], want[i])
		}
	}
}

func TestTranspose(t *testing.T) {
	m := NewMatrixFrom(2, 3, []float64{1, 2, 3, 4, 5, 6})
	tr := m.Transpose()
	if tr.Rows != 3 || tr.Cols != 2 {
		t.Fatalf("bad transpose shape %dx%d", tr.Rows, tr.Cols)
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			if m.At(i, j) != tr.At(j, i) {
				t.Fatalf("transpose mismatch at %d,%d", i, j)
			}
		}
	}
}

func TestTransposeInvolution(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r, c := 1+rng.Intn(8), 1+rng.Intn(8)
		m := NewMatrix(r, c)
		for i := range m.Data {
			m.Data[i] = rng.NormFloat64()
		}
		return m.Transpose().Transpose().MaxAbsDiff(m) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSymmetrize(t *testing.T) {
	m := NewMatrixFrom(2, 2, []float64{1, 4, 2, 5})
	m.Symmetrize()
	if m.MaxAbsDiff(m.Transpose()) != 0 {
		t.Fatal("not symmetric after Symmetrize")
	}
	if m.At(0, 1) != 3 {
		t.Fatalf("off-diagonal = %v, want 3", m.At(0, 1))
	}
}

func TestFrobeniusNorm(t *testing.T) {
	m := NewMatrixFrom(1, 2, []float64{3, 4})
	if got := m.FrobeniusNorm(); math.Abs(got-5) > 1e-14 {
		t.Fatalf("FrobeniusNorm = %v, want 5", got)
	}
}

func TestMaxAbsDiff(t *testing.T) {
	a := NewMatrixFrom(1, 3, []float64{1, 2, 3})
	b := NewMatrixFrom(1, 3, []float64{1, 2.5, 2})
	if got := a.MaxAbsDiff(b); got != 1 {
		t.Fatalf("MaxAbsDiff = %v, want 1", got)
	}
}

func TestZeroAndCopyFrom(t *testing.T) {
	a := NewMatrixFrom(2, 2, []float64{1, 2, 3, 4})
	b := NewMatrix(2, 2)
	b.CopyFrom(a)
	a.Zero()
	if a.FrobeniusNorm() != 0 {
		t.Fatal("Zero did not clear matrix")
	}
	if b.At(1, 1) != 4 {
		t.Fatal("CopyFrom lost data")
	}
}

func TestStringContainsValues(t *testing.T) {
	m := NewMatrixFrom(1, 1, []float64{2.5})
	if s := m.String(); len(s) == 0 {
		t.Fatal("empty String()")
	}
}
