package main

import (
	"fmt"
	"math"
	"sort"
)

// minTail is how many samples must lie beyond a percentile before it is
// reported: a p90 resting on fewer than ten slower samples is noise.
const minTail = 10

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentile returns the nearest-rank p-quantile of xs (0 < p < 1). It
// refuses with an error unless at least minTail samples rank above it.
func percentile(xs []float64, p float64) (float64, error) {
	n := len(xs)
	rank := int(math.Ceil(p*float64(n))) - 1
	if rank < 0 {
		rank = 0
	}
	if beyond := n - 1 - rank; n == 0 || beyond < minTail {
		return 0, fmt.Errorf("p%g needs %d samples beyond it, have %d samples", p*100, minTail, n)
	}
	return sorted(xs)[rank], nil
}

// median returns the middle of xs (the mean of the two middle samples for an
// even count); 0 for no samples.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := sorted(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the three cut points Python's
// statistics.quantiles(xs, n=4) gives (its default "exclusive" method), so
// spreads computed here agree with a Python script's over the same runs.
// It needs at least two samples.
func quartiles(xs []float64) ([3]float64, error) {
	var q [3]float64
	n := len(xs)
	if n < 2 {
		return q, fmt.Errorf("quartiles need 2 samples, have %d", n)
	}
	s := sorted(xs)
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q, nil
}

// spread is the interquartile distance of xs as a share of its median.
func spread(xs []float64) (float64, error) {
	q, err := quartiles(xs)
	if err != nil {
		return 0, err
	}
	return (q[2] - q[0]) / median(xs), nil
}

// geomean returns the geometric mean of xs, which must all be positive. It
// sums in sorted order, so the result does not depend on the input order.
func geomean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, fmt.Errorf("geomean of no samples")
	}
	var sum float64
	for _, x := range sorted(xs) {
		if !(x > 0) {
			return 0, fmt.Errorf("geomean of non-positive sample %g", x)
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs))), nil
}

// ratio is a/b, or 0 when nothing was counted.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
