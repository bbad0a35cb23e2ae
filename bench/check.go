package main

import (
	"errors"
	"fmt"
	"math"

	"soma/internal/coresched"
	"soma/internal/hw"
	"soma/internal/report"
	"soma/internal/sim"
)

// boundSlack allows closed-form bounds to be missed by float rounding: the
// simulator and the bound sum the same terms in different orders.
const boundSlack = 1e-9

// checkSolve checks a direct solve without trusting the search: the winning
// schedule is re-evaluated on a fresh core-array scheduler, every payload
// metric and the cost must equal the re-evaluation exactly, the schedule must
// fit the buffer, and latency must be at least max(compute busy time, DRAM
// bytes / bandwidth).
func checkSolve(res *report.Result, cfg hw.Config) error {
	if res.Raw == nil || res.Raw.Schedule == nil {
		return errors.New("result carries no schedule")
	}
	m, err := sim.Evaluate(res.Raw.Schedule, coresched.New(cfg), sim.Options{})
	if err != nil {
		return fmt.Errorf("re-evaluating the winner: %w", err)
	}
	got := report.Metrics{
		LatencyNS:          m.LatencyNS,
		EnergyPJ:           m.EnergyPJ,
		CoreEnergyPJ:       m.CoreEnergyPJ,
		DRAMEnergyPJ:       m.DRAMEnergyPJ,
		Utilization:        m.Utilization,
		TheoreticalMaxUtil: m.TheoreticalMaxUtil,
		DRAMUtilization:    m.DRAMUtilization,
		TotalDRAMBytes:     m.TotalDRAMBytes,
		PeakBufferBytes:    m.PeakBufferBytes,
		AvgBufferBytes:     m.AvgBufferBytes,
	}
	if got != res.Metrics {
		return fmt.Errorf("payload metrics %+v, re-evaluation %+v", res.Metrics, got)
	}
	if !m.BufferOK {
		return fmt.Errorf("winner needs %d buffer bytes, budget %d", m.PeakBufferBytes, m.Budget)
	}
	if c := m.Cost(res.Objective.N, res.Objective.M); c != res.Cost {
		return fmt.Errorf("payload cost %g, re-evaluation %g", res.Cost, c)
	}
	if lb := math.Max(m.ComputeBusyNS, float64(m.TotalDRAMBytes)/cfg.DRAMBandwidth); m.LatencyNS < lb*(1-boundSlack) {
		return fmt.Errorf("latency %g ns below the compute/DRAM bound %g ns", m.LatencyNS, lb)
	}
	return checkPayload(res)
}

// checkPayload checks what a result payload alone determines: the cost is
// Energy^n x Delay^m of the reported metrics, the peak buffer fits the
// hardware, and latency is no shorter than moving the DRAM bytes takes.
func checkPayload(res *report.Result) error {
	m := res.Metrics
	if c := math.Pow(m.EnergyPJ, res.Objective.N) * math.Pow(m.LatencyNS, res.Objective.M); c != res.Cost {
		return fmt.Errorf("cost %g is not energy^%g x latency^%g = %g", res.Cost, res.Objective.N, res.Objective.M, c)
	}
	if m.PeakBufferBytes > res.Hardware.GBufBytes {
		return fmt.Errorf("peak buffer %d exceeds the %d-byte GBUF", m.PeakBufferBytes, res.Hardware.GBufBytes)
	}
	if lb := float64(m.TotalDRAMBytes) / res.Hardware.DRAMBandwidth; m.LatencyNS < lb*(1-boundSlack) {
		return fmt.Errorf("latency %g ns below the DRAM bound %g ns", m.LatencyNS, lb)
	}
	return nil
}

// sameAnswer checks that two solves of one request agree on the schedule and
// everything it determines.
func sameAnswer(got, want *report.Result) error {
	if got.Cost != want.Cost || got.ScheduleSHA256 != want.ScheduleSHA256 ||
		got.EncodingSHA256 != want.EncodingSHA256 || got.Metrics != want.Metrics {
		return fmt.Errorf("cost %g schedule %.12s, want cost %g schedule %.12s",
			got.Cost, got.ScheduleSHA256, want.Cost, want.ScheduleSHA256)
	}
	return nil
}
