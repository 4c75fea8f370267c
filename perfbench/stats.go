package main

import (
	"fmt"
	"math"
	"sort"
)

// quantile returns the q-quantile of xs with linear interpolation between
// closest ranks (0 for an empty sample). xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo, hi := int(math.Floor(pos)), int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

// median returns the middle value of xs without reordering it.
func median(xs []float64) float64 { return quantile(append([]float64(nil), xs...), 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}

// ratio is a/b, or 0 when b is 0, so an absent layer reads 0, never NaN.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// pct is one percentile with the sample it was taken from; the summary
// prints both, so a tail figure is never read without its sample size.
type pct struct {
	q float64
	n int
	v float64
}

func percentile(xs []float64, q float64) pct {
	return pct{q: q, n: len(xs), v: quantile(xs, q)}
}

// String renders the percentile with its sample count and how many samples
// lie beyond it.
func (p pct) String() string {
	beyond := int(math.Floor(float64(p.n) * (1 - p.q)))
	return fmt.Sprintf("p%g of n=%d (%d beyond)", p.q*100, p.n, beyond)
}
