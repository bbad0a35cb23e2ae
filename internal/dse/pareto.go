package dse

import "sort"

// Front returns the indices of the rows forming the minimal non-dominated
// set under joint minimization of (x, y), ordered by ascending x. A row is
// on the front when no other successful row has both x <= and y <= it (with
// at least one strict); among x-ties only the lowest y survives. Error rows
// never participate. Ties beyond that resolve to the lowest index, so the
// front is deterministic.
func Front(rows []Row, x, y func(Row) float64) []int {
	var idx []int
	for i, r := range rows {
		if r.Err == "" && r.Result != nil {
			idx = append(idx, i)
		}
	}
	sort.SliceStable(idx, func(a, b int) bool {
		xa, xb := x(rows[idx[a]]), x(rows[idx[b]])
		if xa != xb {
			return xa < xb
		}
		return y(rows[idx[a]]) < y(rows[idx[b]])
	})
	var front []int
	for _, i := range idx {
		if len(front) > 0 {
			last := front[len(front)-1]
			if x(rows[i]) == x(rows[last]) {
				continue // x-tie: first (lowest y) wins
			}
			if y(rows[i]) >= y(rows[last]) {
				continue // dominated: more resource, no cost improvement
			}
		}
		front = append(front, i)
	}
	return front
}

// CostVsBufferFront is the Fig. 7 co-design aggregate: the Pareto front of
// objective cost against global-buffer capacity (the row's effective GBUF
// bytes, preset or override). It answers "which buffer sizes actually buy
// cost" - a point is on the front only if no smaller-or-equal buffer reaches
// its cost. Returns nil when the sweep spans fewer than two buffer sizes
// (the frontier would be a single trivial point).
func CostVsBufferFront(rows []Row) []int {
	sizes := map[int64]bool{}
	for _, r := range rows {
		if r.Err == "" && r.Result != nil {
			sizes[r.Result.Hardware.GBufBytes] = true
		}
	}
	if len(sizes) < 2 {
		return nil
	}
	return Front(rows,
		func(r Row) float64 { return float64(r.Result.Hardware.GBufBytes) },
		func(r Row) float64 { return r.Result.Cost })
}
