package bench

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestCostSpreadKnown(t *testing.T) {
	mom, cv, _ := costSpread([]float64{1, 2, 3, 4})
	if mom != 1.6 {
		t.Fatalf("max/mean = %v", mom)
	}
	if math.Abs(cv-math.Sqrt(1.25)/2.5) > 1e-12 {
		t.Fatalf("cv = %v", cv)
	}
}

func TestGini(t *testing.T) {
	if g := gini([]float64{1, 1, 1, 1}); math.Abs(g) > 1e-12 {
		t.Fatalf("equal sample Gini = %v", g)
	}
	// One has everything (n=4): Gini = (n-1)/n = 0.75.
	if g := gini([]float64{0, 0, 0, 8}); math.Abs(g-0.75) > 1e-12 {
		t.Fatalf("concentrated Gini = %v", g)
	}
	if g := gini([]float64{0, 0}); g != 0 {
		t.Fatalf("zero-total Gini = %v", g)
	}
}

func TestGiniInvariantToScale(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		xs := make([]float64, 2+rng.Intn(30))
		for i := range xs {
			xs[i] = rng.Float64() * 10
		}
		g1 := gini(xs)
		scaled := make([]float64, len(xs))
		for i := range xs {
			scaled[i] = xs[i] * 7.5
		}
		return math.Abs(g1-gini(scaled)) < 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHistogram(t *testing.T) {
	xs := []float64{1, 10, 100, 1000}
	h := histogram(xs, 3)
	if len(h) != 3 {
		t.Fatalf("%d buckets", len(h))
	}
	var total int
	for _, b := range h {
		total += b.Count
		if b.Hi < b.Lo {
			t.Fatalf("inverted bucket %+v", b)
		}
	}
	if total != len(xs) {
		t.Fatalf("histogram lost values: %d", total)
	}
}

func TestHistogramSingleValue(t *testing.T) {
	h := histogram([]float64{5, 5, 5}, 4)
	if len(h) != 1 || h[0].Count != 3 {
		t.Fatalf("%+v", h)
	}
}

func TestHistogramRejectsNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	histogram([]float64{1, -1}, 2)
}

func TestHistogramCoversAll(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		xs := make([]float64, 1+rng.Intn(200))
		for i := range xs {
			xs[i] = math.Exp(rng.NormFloat64() * 2)
		}
		nb := 1 + rng.Intn(20)
		var total int
		for _, b := range histogram(xs, nb) {
			total += b.Count
		}
		return total == len(xs)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCostSpreadEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	costSpread(nil)
}

func TestEmptyInputsPanic(t *testing.T) {
	cases := map[string]func(){
		"gini":      func() { gini(nil) },
		"histogram": func() { histogram(nil, 4) },
	}
	for name, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s(empty) did not panic", name)
				}
			}()
			fn()
		}()
	}
}

// TestSingleSample checks the n=1 degenerate case: max/mean is 1 and
// the spread measures are zero.
func TestSingleSample(t *testing.T) {
	if mom, cv, g := costSpread([]float64{7}); mom != 1 || cv != 0 || g != 0 {
		t.Fatalf("costSpread([7]) = %v, %v, %v", mom, cv, g)
	}
}

// TestZeroSamplesNaNFree checks the all-zero guards: an all-zero sample
// must yield defined values, never NaN from 0/0.
func TestZeroSamplesNaNFree(t *testing.T) {
	if mom, cv, g := costSpread([]float64{0, 0, 0, 0}); mom != 0 || cv != 0 || g != 0 {
		t.Fatalf("costSpread(zeros) = %v, %v, %v", mom, cv, g)
	}
}

// TestCostSpreadNaNFreeProperty fuzzes costSpread over random
// non-negative samples and asserts no measure ever comes back NaN or
// infinite.
func TestCostSpreadNaNFreeProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		xs := make([]float64, 1+rng.Intn(40))
		for i := range xs {
			if rng.Intn(4) != 0 { // leave exact zeros in a quarter of the slots
				xs[i] = math.Exp(rng.NormFloat64() * 3)
			}
		}
		mom, cv, g := costSpread(xs)
		for _, v := range []float64{mom, cv, g} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("trial %d: costSpread(%v) = %v, %v, %v", trial, xs, mom, cv, g)
			}
		}
	}
}
