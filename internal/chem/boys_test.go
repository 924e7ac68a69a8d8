package chem

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBoysAtZero(t *testing.T) {
	out := make([]float64, 6)
	Boys(5, 0, out)
	for m := 0; m <= 5; m++ {
		want := 1 / float64(2*m+1)
		if math.Abs(out[m]-want) > 1e-14 {
			t.Fatalf("F_%d(0) = %v, want %v", m, out[m], want)
		}
	}
}

// F_0(x) = sqrt(pi/x)/2 * erf(sqrt(x)) exactly.
func TestBoysF0AgainstErf(t *testing.T) {
	out := make([]float64, 1)
	for _, x := range []float64{1e-8, 0.1, 0.5, 1, 2, 5, 10, 20, 34.9, 35.1, 50, 100, 500} {
		Boys(0, x, out)
		want := 0.5 * math.Sqrt(math.Pi/x) * math.Erf(math.Sqrt(x))
		if math.Abs(out[0]-want) > 1e-12*math.Max(1, want) {
			t.Errorf("F_0(%v) = %.15g, want %.15g", x, out[0], want)
		}
	}
}

// Upward recursion identity: F_{m+1} = ((2m+1) F_m - e^{-x}) / (2x).
func TestBoysRecursionIdentity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		x := rng.Float64() * 60
		if x < 1e-6 {
			x = 1e-6
		}
		out := make([]float64, 9)
		Boys(8, x, out)
		ex := math.Exp(-x)
		for m := 0; m < 8; m++ {
			want := (float64(2*m+1)*out[m] - ex) / (2 * x)
			if math.Abs(out[m+1]-want) > 1e-10*math.Max(1e-8, out[m]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// F_m is positive and decreasing in m for x > 0.
func TestBoysMonotoneInOrder(t *testing.T) {
	out := make([]float64, 11)
	for _, x := range []float64{0.01, 1, 10, 40, 200} {
		Boys(10, x, out)
		for m := 0; m <= 10; m++ {
			if out[m] <= 0 {
				t.Fatalf("F_%d(%v) = %v, want > 0", m, x, out[m])
			}
			if m > 0 && out[m] >= out[m-1] {
				t.Fatalf("F_%d(%v)=%v >= F_%d=%v", m, x, out[m], m-1, out[m-1])
			}
		}
	}
}

// Both branches must agree with the closed form near the series/asymptotic
// switch at x = 35 (F itself has slope ~-2e-3 there, so comparing the two
// branch outputs at different x directly would mostly measure that slope).
func TestBoysContinuityAtSwitch(t *testing.T) {
	out := make([]float64, 1)
	for _, x := range []float64{34.999999, 35.000001} {
		Boys(0, x, out)
		want := 0.5 * math.Sqrt(math.Pi/x) * math.Erf(math.Sqrt(x))
		if math.Abs(out[0]-want) > 1e-12*want {
			t.Fatalf("F_0(%v) = %.15g, want %.15g", x, out[0], want)
		}
	}
}

// Known literature value: F_0(1) ≈ 0.7468241328 (= sqrt(pi)/2 erf(1)).
func TestBoysKnownValue(t *testing.T) {
	out := make([]float64, 1)
	Boys(0, 1, out)
	if math.Abs(out[0]-0.7468241328124270) > 1e-12 {
		t.Fatalf("F_0(1) = %.15g", out[0])
	}
}

func TestBoysShortSlicePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Boys(3, 1, make([]float64, 3))
}

// boysDeviation returns the largest relative distance between Boys and
// boysReference over orders 0..mmax at x.
func boysDeviation(mmax int, x float64) float64 {
	got, want := make([]float64, mmax+1), make([]float64, mmax+1)
	Boys(mmax, x, got)
	boysReference(mmax, x, want)
	var worst float64
	for m := range want {
		if dev := math.Abs(got[m]-want[m]) / want[m]; !(dev <= worst) {
			worst = dev
		}
	}
	return worst
}

// The table, the asymptotic branch and the hand-over to boysReference
// against boysReference itself — the series and recursions Boys consisted
// of before it had a table — at relative 1e-13 for every order: on a dense
// grid across both switches, on every table node and every midpoint between
// nodes (where the Taylor step is longest and the nearest node changes),
// and one ulp either side of each of those, of the reference's zero
// cut-off, of the switch at 35 and of the point where e^{-x} is dropped.
func TestBoysMatchesReference(t *testing.T) {
	var xs []float64
	bracket := func(x float64) {
		xs = append(xs, math.Nextafter(x, 0), x, math.Nextafter(x, math.Inf(1)))
	}
	for k := 0; k <= 6000; k++ {
		xs = append(xs, 0.01*float64(k))
	}
	for i := 0; i <= boysSwitch/boysStep; i++ {
		bracket(float64(i) * boysStep)
		bracket((float64(i) + 0.5) * boysStep)
	}
	bracket(1e-14)
	bracket(boysSwitch)
	bracket(boysNoExp)
	// 0, 3 and 8 are served by the table, 9 and 16 lie above it.
	for _, mmax := range []int{0, 3, boysTableOrder, boysTableOrder + 1, 16} {
		var worst, at float64
		for _, x := range xs {
			if dev := boysDeviation(mmax, x); !(dev <= worst) {
				worst, at = dev, x
			}
		}
		if !(worst <= 1e-13) {
			t.Errorf("mmax %d: Boys is %.3g (relative) off the reference at x = %v", mmax, worst, at)
		}
		t.Logf("mmax %d: largest relative deviation %.3g at x = %v over %d points", mmax, worst, at, len(xs))
	}
}

// FuzzBoys checks what must hold for any argument: every order finite and
// positive, strictly decreasing in m, and consecutive orders tied by
// (2m+1)·F_m = 2x·F_{m+1} + e^{-x} to 1e-10.
func FuzzBoys(f *testing.F) {
	f.Add(0.0, uint8(8))
	f.Add(1e-14, uint8(0))
	f.Add(34.99, uint8(8))
	f.Add(35.0, uint8(16))
	f.Add(63.99, uint8(4))
	f.Add(2500.0, uint8(9))
	f.Fuzz(func(t *testing.T, x float64, order uint8) {
		x = math.Abs(x)
		if !(x <= 1e4) { // beyond it the high orders underflow
			t.Skip()
		}
		mmax := int(order % 17)
		out := make([]float64, mmax+1)
		Boys(mmax, x, out)
		ex := math.Exp(-x)
		for m, v := range out {
			if !(v > 0) || math.IsInf(v, 0) {
				t.Fatalf("F_%d(%v) = %v", m, x, v)
			}
			if m == 0 {
				continue
			}
			if v >= out[m-1] {
				t.Fatalf("F_%d(%v) = %v >= F_%d = %v", m, x, v, m-1, out[m-1])
			}
			lhs := float64(2*m-1) * out[m-1]
			if math.Abs(lhs-(2*x*v+ex)) > 1e-10*lhs {
				t.Fatalf("x = %v: %d·F_%d = %v, 2x·F_%d + e^-x = %v", x, 2*m-1, m-1, lhs, m, 2*x*v+ex)
			}
		}
	})
}
