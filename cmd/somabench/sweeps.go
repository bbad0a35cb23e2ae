package main

import (
	"context"
	"fmt"

	"soma/internal/exp"
	"soma/internal/report"
	"soma/internal/soma"
)

// edp sweeps the Energy^n x Delay^m objective exponents (the framework's
// tunable optimization goal, Sec. V-A) on one case.
func (h *harness) edp(c exp.Case) error {
	objectives := []soma.Objective{
		{N: 0, M: 1}, // latency only
		{N: 1, M: 0}, // energy only
		{N: 1, M: 1}, // EDP (paper default)
		{N: 1, M: 2}, // delay-squared (latency-critical)
		{N: 2, M: 1}, // energy-squared (battery-critical)
	}
	pts := exp.ObjectiveSweep(context.Background(), c, h.search, h.par.Seed, objectives)
	t := report.New(fmt.Sprintf("Objective sweep: %s", c),
		"objective", "latency", "energy(mJ)")
	for _, p := range pts {
		name := fmt.Sprintf("E^%g x D^%g", p.N, p.M)
		if p.Err != nil {
			t.Add(name, "ERR: "+p.Err.Error())
			continue
		}
		t.Add(name, fmt.Sprintf("%.3fms", p.LatencyMS), report.F(p.EnergyMJ, 3))
	}
	if !exp.FrontierConsistent(pts, 0.25) {
		fmt.Println("warning: objective frontier inconsistent (search noise dominates at this profile)")
	}
	return h.emit(t, "edp.csv")
}

// seeds measures the run-to-run stability of the annealer on one case.
func (h *harness) seeds(c exp.Case) error {
	st, err := exp.SeedSweep(context.Background(), c, h.search, []int64{1, 2, 3, 4, 5})
	if err != nil {
		return err
	}
	t := report.New(fmt.Sprintf("Seed stability: %s", c),
		"seeds", "min", "median", "max", "spread")
	t.Add(fmt.Sprint(st.Seeds),
		fmt.Sprintf("%.3fms", st.MinMS),
		fmt.Sprintf("%.3fms", st.MedMS),
		fmt.Sprintf("%.3fms", st.MaxMS),
		report.Pct(st.SpreadPct))
	fmt.Println(st.String())
	return h.emit(t, "seeds.csv")
}
