package bench

import (
	"fmt"
	"math"
	"sort"
)

// costSpread returns the irregularity measures F1 reports for a cost
// sample: max/mean, the coefficient of variation (population standard
// deviation over the mean) and the Gini coefficient. A zero mean gives
// zero for the first two. It panics on an empty sample.
func costSpread(xs []float64) (maxOverMean, cv, g float64) {
	if len(xs) == 0 {
		panic("bench: empty sample")
	}
	var sum float64
	mx := math.Inf(-1)
	for _, x := range xs {
		sum += x
		mx = math.Max(mx, x)
	}
	mean := sum / float64(len(xs))
	var ss float64
	for _, x := range xs {
		d := x - mean
		ss += d * d
	}
	if mean != 0 {
		maxOverMean = mx / mean
		cv = math.Sqrt(ss/float64(len(xs))) / mean
	}
	return maxOverMean, cv, gini(xs)
}

// gini returns the Gini coefficient of the (non-negative) sample: 0 for
// perfectly equal values, → 1 for extreme inequality.
func gini(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		panic("bench: empty sample")
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	var cum, total float64
	for i, x := range sorted {
		cum += float64(i+1) * x
		total += x
	}
	if total == 0 {
		return 0
	}
	return (2*cum)/(float64(n)*total) - (float64(n)+1)/float64(n)
}

// bucket is one histogram bin.
type bucket struct {
	Lo, Hi float64
	Count  int
}

// histogram builds nb log-spaced buckets over xs (all values must be
// positive). Log spacing matches the heavy-tailed task-cost distributions
// under study.
func histogram(xs []float64, nb int) []bucket {
	if len(xs) == 0 || nb < 1 {
		panic("bench: bad histogram input")
	}
	mn, mx := math.Inf(1), math.Inf(-1)
	for _, x := range xs {
		if x <= 0 {
			panic(fmt.Sprintf("bench: histogram needs positive values, got %v", x))
		}
		mn = math.Min(mn, x)
		mx = math.Max(mx, x)
	}
	if mn == mx {
		return []bucket{{Lo: mn, Hi: mx, Count: len(xs)}}
	}
	lmn, lmx := math.Log(mn), math.Log(mx)
	buckets := make([]bucket, nb)
	for i := range buckets {
		buckets[i].Lo = math.Exp(lmn + (lmx-lmn)*float64(i)/float64(nb))
		buckets[i].Hi = math.Exp(lmn + (lmx-lmn)*float64(i+1)/float64(nb))
	}
	for _, x := range xs {
		idx := int(float64(nb) * (math.Log(x) - lmn) / (lmx - lmn))
		if idx >= nb {
			idx = nb - 1
		}
		buckets[idx].Count++
	}
	return buckets
}
