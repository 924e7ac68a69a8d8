package main

import (
	"math"
	"sort"
	"time"
)

// sample is a set of measurements of one quantity; a metric is reported
// as its median with min, max and n.
type sample []float64

func (s sample) sorted() []float64 {
	c := append([]float64(nil), s...)
	sort.Float64s(c)
	return c
}

// quantile is the nearest-rank quantile: the smallest value with at
// least a share q of the sample at or below it.
func (s sample) quantile(q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	c := s.sorted()
	i := int(math.Ceil(q*float64(len(c)))) - 1
	if i < 0 {
		i = 0
	}
	return c[i]
}

// tail is the highest percentile the sample supports: the nearest-rank
// 95th when some value lies beyond it (20 values or more), else the
// median — a tail read off five repeats is their slowest, which is this
// host's noise and nothing else.
func (s sample) tail() float64 {
	if len(s) < 20 {
		return s.median()
	}
	return s.quantile(0.95)
}

func (s sample) median() float64 {
	if len(s) == 0 {
		return 0
	}
	c := s.sorted()
	n := len(c)
	if n%2 == 1 {
		return c[n/2]
	}
	return (c[n/2-1] + c[n/2]) / 2
}

func (s sample) sum() float64 {
	var t float64
	for _, v := range s {
		t += v
	}
	return t
}

// outlierShare is the share of values more than 15% off the median.
func (s sample) outlierShare() float64 {
	if len(s) == 0 {
		return 0
	}
	m := s.median()
	var out int
	for _, v := range s {
		if math.Abs(v-m) > 0.15*m {
			out++
		}
	}
	return float64(out) / float64(len(s))
}

// timeCalls runs f n times and returns the per-call seconds.
func timeCalls(n int, f func()) sample {
	out := make(sample, n)
	for i := range out {
		t0 := time.Now()
		f()
		out[i] = time.Since(t0).Seconds()
	}
	return out
}
