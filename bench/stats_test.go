package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so helpers must sort
	}
	return xs
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		p    float64
		want float64 // 0: refused
	}{
		{100, 0.9, 90},
		{99, 0.9, 0},
		{20, 0.5, 10},
		{19, 0.5, 0},
		{1000, 0.99, 990},
		{999, 0.99, 0},
		{0, 0.5, 0},
	} {
		got, err := percentile(seq(tc.n), tc.p)
		if tc.want == 0 {
			if err == nil {
				t.Errorf("p%g of %d samples = %g, want refusal", tc.p*100, tc.n, got)
			}
			continue
		}
		if err != nil || got != tc.want {
			t.Errorf("p%g of %d samples = %g, %v; want %g", tc.p*100, tc.n, got, err, tc.want)
		}
	}
}

// The reference values are Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want [3]float64
	}{
		{seq(10), [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{10, 20, 30, 40, 50}, [3]float64{15, 30, 45}},
		{[]float64{5, 1, 4, 2, 3, 9, 7}, [3]float64{2, 4, 7}},
	} {
		got, err := quartiles(tc.xs)
		if err != nil || got != tc.want {
			t.Errorf("quartiles(%v) = %v, %v; want %v", tc.xs, got, err, tc.want)
		}
	}
	if _, err := quartiles([]float64{1}); err == nil {
		t.Error("quartiles of one sample: want an error")
	}
	if s, err := spread([]float64{10, 20, 30, 40, 50}); err != nil || s != 1 {
		t.Errorf("spread = %g, %v; want 1", s, err)
	}
}

func TestMedianAndGeomean(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median odd = %g", m)
	}
	if m := median(seq(4)); m != 2.5 {
		t.Errorf("median even = %g", m)
	}
	if g, err := geomean([]float64{1, 100}); err != nil || math.Abs(g-10) > 1e-12 {
		t.Errorf("geomean = %g, %v; want 10", g, err)
	}
	for _, xs := range [][]float64{nil, {1, 0}, {2, -1}, {math.NaN()}} {
		if _, err := geomean(xs); err == nil {
			t.Errorf("geomean(%v): want an error", xs)
		}
	}
}

func TestClassify(t *testing.T) {
	runs := func(xs ...float64) map[int64]float64 {
		m := map[int64]float64{}
		for i, x := range xs {
			m[int64(i+1)] = x
		}
		return m
	}
	base := runs(100, 101, 99, 100, 102, 98, 100, 101, 99, 100)
	for _, tc := range []struct {
		name   string
		change map[int64]float64
		better string
		want   string
	}{
		{"same", runs(100, 101, 99, 100, 102, 98, 100, 101, 99, 100), "lower", "unchanged"},
		{"slower beyond bound", runs(120, 121, 119, 120, 122, 118, 120, 121, 119, 120), "lower", "regressed"},
		{"slower within bound", runs(105, 106, 104, 105, 107, 103, 105, 106, 104, 105), "lower", "unchanged"},
		{"faster on every pair", runs(95, 96, 94, 95, 97, 93, 95, 96, 94, 95), "lower", "improved"},
		{"higher is better", runs(95, 96, 94, 95, 97, 93, 95, 96, 94, 95), "higher", "unchanged"},
		{"lower throughput", runs(80, 81, 79, 80, 82, 78, 80, 81, 79, 80), "higher", "regressed"},
		{"too noisy", runs(60, 140, 80, 120, 100, 70, 130, 90, 110, 100), "lower", "unresolved"},
		{"noisy but always better", runs(10, 50, 20, 40, 30, 15, 45, 25, 35, 30), "lower", "improved"},
		{"one run", runs(100), "lower", "unresolved"},
	} {
		if v := classify(base, tc.change, tc.better, 0.1); v.verdict != tc.want {
			t.Errorf("%s: verdict %s (%+v), want %s", tc.name, v.verdict, v, tc.want)
		}
	}
}
