package exp

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"soma/internal/dse"
	"soma/internal/report"
	"soma/internal/soma"
)

// ObjectivePoint is one row of the Energy^n x Delay^m sweep: the framework's
// optimization goal is tunable (Sec. V-A), trading energy against latency.
type ObjectivePoint struct {
	N, M      float64
	LatencyMS float64
	EnergyMJ  float64
	Err       error
}

// ObjectiveSweep schedules one case under several (n, m) objective exponents
// and reports how the chosen schedule shifts along the energy/latency
// frontier. It is a thin adapter over the dse grid runner: the objective
// axis shares one evaluation cache (metrics are objective-independent, so
// neighboring exponents reuse each other's evaluations) and ctx cancels
// mid-grid.
func ObjectiveSweep(ctx context.Context, c Case, search dse.Search, seed int64, objectives []soma.Objective) []ObjectivePoint {
	out := make([]ObjectivePoint, len(objectives))
	objs := make([]report.Objective, len(objectives))
	for i, o := range objectives {
		out[i] = ObjectivePoint{N: o.N, M: o.M}
		objs[i] = report.Objective{N: o.N, M: o.M}
	}
	res, err := dse.Run(ctx, dse.Sweep{
		Name:       "objective-sweep",
		Models:     []string{c.Workload},
		Batches:    []int{c.Batch},
		Platforms:  []string{c.Platform},
		Objectives: objs,
		Search:     &search,
		Seeds:      []int64{seed},
	}, dse.Options{})
	if err != nil {
		for i := range out {
			out[i].Err = err
		}
		return out
	}
	// The objective axis is the only multi-valued one, so rows map to the
	// requested exponents one-to-one in order.
	for i, row := range res.Rows {
		if row.Err != "" {
			out[i].Err = errors.New(row.Err)
			continue
		}
		out[i].LatencyMS = row.Result.Metrics.LatencyNS / 1e6
		out[i].EnergyMJ = row.Result.Metrics.EnergyPJ / 1e9
	}
	return out
}

// FrontierConsistent checks the expected monotonicity of an objective sweep:
// increasing the delay exponent must not produce a slower schedule than the
// energy-weighted objectives, within tolerance (search noise).
func FrontierConsistent(pts []ObjectivePoint, tol float64) bool {
	var latOnly, enOnly *ObjectivePoint
	for i := range pts {
		if pts[i].Err != nil {
			continue
		}
		if pts[i].N == 0 && pts[i].M > 0 {
			latOnly = &pts[i]
		}
		if pts[i].N > 0 && pts[i].M == 0 {
			enOnly = &pts[i]
		}
	}
	if latOnly == nil || enOnly == nil {
		return true
	}
	return latOnly.LatencyMS <= enOnly.LatencyMS*(1+tol) &&
		enOnly.EnergyMJ <= latOnly.EnergyMJ*(1+tol)
}

// SeedStats summarizes a seed-stability run.
type SeedStats struct {
	Seeds            int
	MinMS, MedMS     float64
	MaxMS            float64
	SpreadPct        float64 // (max-min)/min
	AllWithinPercent float64 // == SpreadPct * 100
}

// SeedSweep runs SoMa on one case with k different seeds and reports the
// latency spread - the reproducibility check the artifact's fixed-seed
// protocol relies on. The seed axis is a dse sweep sharing one evaluation
// cache, so chains re-exploring states a neighboring seed already evaluated
// hit warm entries; ctx cancels mid-grid.
func SeedSweep(ctx context.Context, c Case, search dse.Search, seeds []int64) (SeedStats, error) {
	res, err := dse.Run(ctx, dse.Sweep{
		Name:      "seed-sweep",
		Models:    []string{c.Workload},
		Batches:   []int{c.Batch},
		Platforms: []string{c.Platform},
		Seeds:     seeds,
		Search:    &search,
	}, dse.Options{})
	if err != nil {
		return SeedStats{}, err
	}
	var ms []float64
	for _, row := range res.Rows {
		if row.Err != "" {
			return SeedStats{}, errors.New(row.Err)
		}
		ms = append(ms, row.Result.Metrics.LatencyNS/1e6)
	}
	sort.Float64s(ms)
	st := SeedStats{
		Seeds: len(ms),
		MinMS: ms[0], MaxMS: ms[len(ms)-1], MedMS: ms[len(ms)/2],
	}
	if st.MinMS > 0 {
		st.SpreadPct = (st.MaxMS - st.MinMS) / st.MinMS
		st.AllWithinPercent = st.SpreadPct * 100
	}
	return st, nil
}

// String renders seed stats for reports.
func (s SeedStats) String() string {
	return fmt.Sprintf("%d seeds: min %.3f / med %.3f / max %.3f ms (spread %.1f%%)",
		s.Seeds, s.MinMS, s.MedMS, s.MaxMS, s.AllWithinPercent)
}
