package dse

import (
	"fmt"
	"math/rand"
	"testing"

	"soma/internal/report"
)

// randomRows builds a row set with clustered buffer sizes, duplicated
// (buffer, cost) pairs, and a sprinkling of error rows - the degenerate
// shapes the front aggregates must stay deterministic over.
func randomRows(rng *rand.Rand, n int) []Row {
	rows := make([]Row, n)
	for i := range rows {
		if rng.Intn(8) == 0 {
			rows[i] = Row{Point: Point{Index: i}, Err: "solver exploded"}
			continue
		}
		buf := int64(1+rng.Intn(4)) << 20
		cost := float64(1+rng.Intn(6)) * 1e12
		rows[i] = Row{
			Point: Point{Index: i, Model: fmt.Sprintf("m%d", rng.Intn(3))},
			Result: &report.Result{
				Hardware: report.Hardware{GBufBytes: buf},
				Cost:     cost,
			},
		}
	}
	return rows
}

// frontValues projects front indices onto their (buffer, cost) pairs - the
// permutation-invariant identity of the front (index-based tie-breaks may
// pick a different duplicate row, but never a different value pair).
func frontValues(rows []Row, front []int) [][2]float64 {
	vals := make([][2]float64, len(front))
	for i, j := range front {
		vals[i] = [2]float64{float64(rows[j].Result.Hardware.GBufBytes), rows[j].Result.Cost}
	}
	return vals
}

// TestFrontPropertyRandomized: over random row sets and random permutations,
// the cost-vs-buffer front must (a) be a strict staircase, (b) dominate every
// successful row, and (c) select the same value pairs for any row order.
func TestFrontPropertyRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		rows := randomRows(rng, 2+rng.Intn(24))
		front := Front(rows,
			func(r Row) float64 { return float64(r.Result.Hardware.GBufBytes) },
			func(r Row) float64 { return r.Result.Cost })

		// (a) Strict staircase: buffer strictly ascending, cost strictly
		// descending, error rows excluded.
		for i, j := range front {
			r := rows[j]
			if r.Err != "" || r.Result == nil {
				t.Fatalf("trial %d: error row %d on the front", trial, j)
			}
			if i > 0 {
				prev := rows[front[i-1]].Result
				if prev.Hardware.GBufBytes >= r.Result.Hardware.GBufBytes ||
					prev.Cost <= r.Result.Cost {
					t.Fatalf("trial %d: front is not a strict staircase at %d", trial, i)
				}
			}
		}

		// (b) Dominance: every successful row has a front row at most as
		// large and at most as costly.
		for j, r := range rows {
			if r.Err != "" || r.Result == nil {
				continue
			}
			dominated := false
			for _, k := range front {
				f := rows[k].Result
				if f.Hardware.GBufBytes <= r.Result.Hardware.GBufBytes &&
					f.Cost <= r.Result.Cost {
					dominated = true
					break
				}
			}
			if !dominated {
				t.Fatalf("trial %d: row %d not covered by the front", trial, j)
			}
		}

		// (c) Order invariance of the selected value pairs.
		want := frontValues(rows, front)
		for p := 0; p < 5; p++ {
			perm := append([]Row(nil), rows...)
			rng.Shuffle(len(perm), func(a, b int) { perm[a], perm[b] = perm[b], perm[a] })
			got := frontValues(perm, Front(perm,
				func(r Row) float64 { return float64(r.Result.Hardware.GBufBytes) },
				func(r Row) float64 { return r.Result.Cost }))
			if len(got) != len(want) {
				t.Fatalf("trial %d: front size changed under permutation: %d vs %d",
					trial, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("trial %d: front values changed under permutation at %d: %v vs %v",
						trial, i, got[i], want[i])
				}
			}
		}
	}
}
