package main

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// errFewSamples reports a percentile that too few samples lie beyond to
// be estimated: a tail percentile is reported only when at least
// minBeyond samples are larger than it.
var errFewSamples = errors.New("too few samples beyond the percentile")

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile (0 < q < 1) of xs. It
// refuses, with errFewSamples, a percentile that fewer than minBeyond
// samples lie beyond; the median of a non-empty sample is always given.
func percentile(xs []float64, q float64) (float64, error) {
	if len(xs) == 0 {
		return 0, fmt.Errorf("percentile %g of no samples: %w", q, errFewSamples)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(q * float64(len(s))))
	if k < 1 {
		k = 1
	}
	if q > 0.5 && len(s)-k < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, want %d: %w",
			100*q, len(s), len(s)-k, minBeyond, errFewSamples)
	}
	return s[k-1], nil
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count); 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first, second and third quartile of xs by
// nearest rank.
func quartiles(xs []float64) [3]float64 {
	if len(xs) == 0 {
		return [3]float64{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(q float64) float64 { return s[int(math.Ceil(q*float64(len(s))))-1] }
	return [3]float64{at(0.25), at(0.5), at(0.75)}
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}
