package main

import (
	"errors"
	"math/rand"
	"runtime"
	"time"
)

// On a shared VM the same work takes up to 1.7x longer from one quarter hour
// to the next, as other tenants load the physical cores under it. Every time
// the benchmark reports is therefore scaled to a reference host speed: while
// a workload runs, a probe times a fixed kernel every speedEvery on its own
// OS thread, with that thread's CPU clock. The clock leaves out time the
// thread waits for a CPU, so the benchmark's own load does not count, but a
// slower core does. The scale factor is refKernel over the mean kernel time;
// reported times are wall times multiplied by it. The mean, not the median,
// because a workload's wall time sums its slow stretches with its fast ones:
// in nine sets of five to eight runs of identical work, scaling by the mean
// gave the smaller spread in seven.
const (
	speedEvery = 100 * time.Millisecond
	// refKernel is the kernel's CPU time on the reference host: the 2-vCPU
	// VM the metric bounds were set on, at its usual speed (the kernel took
	// 0.78-1.27 ms there over 40 runs, median 0.82 ms).
	refKernel = 800 * time.Microsecond
	// kernelSteps dependent loads walk a 64 KiB table, mixing each value
	// into a hash. The table fits in a core's private cache: the kernel
	// takes the same time inside a benchmark run as in an idle process,
	// while other tenants' load moved it by up to 1.6x.
	kernelSteps = 1 << 18
	kernelSlots = 1 << 14
)

// speedProbe samples the kernel until stopped.
type speedProbe struct {
	stop    chan struct{}
	done    chan struct{}
	samples []float64
	err     error
	sink    uint32
}

func startSpeedProbe() *speedProbe {
	p := &speedProbe{stop: make(chan struct{}), done: make(chan struct{})}
	table := kernelTable()
	go func() {
		defer close(p.done)
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		tick := time.NewTicker(speedEvery)
		defer tick.Stop()
		for {
			d, err := p.time(table)
			if err != nil {
				p.err = err
				return
			}
			p.samples = append(p.samples, float64(d))
			select {
			case <-p.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return p
}

// time runs the kernel once and returns the CPU time it took.
func (p *speedProbe) time(table []uint32) (time.Duration, error) {
	start, err := threadCPU()
	if err != nil {
		return 0, err
	}
	var h, i uint32
	for n := 0; n < kernelSteps; n++ {
		i = table[i]
		h = (h ^ i) * 16777619
	}
	p.sink = h
	end, err := threadCPU()
	return end - start, err
}

// finish stops the probe and returns the factor that scales wall times
// measured during its life to the reference host speed.
func (p *speedProbe) finish() (float64, error) {
	close(p.stop)
	<-p.done
	if p.err != nil {
		return 0, p.err
	}
	var sum float64
	for _, x := range p.samples {
		sum += x
	}
	if sum <= 0 {
		return 0, errors.New("host speed probe took no samples")
	}
	return float64(refKernel) * float64(len(p.samples)) / sum, nil
}

// kernelTable is one random cycle through every slot (Sattolo's algorithm),
// the same for every run.
func kernelTable() []uint32 {
	t := make([]uint32, kernelSlots)
	for i := range t {
		t[i] = uint32(i)
	}
	rng := rand.New(rand.NewSource(1))
	for i := len(t) - 1; i > 0; i-- {
		j := rng.Intn(i)
		t[i], t[j] = t[j], t[i]
	}
	return t
}
