package main

import "time"

// The reference kernel is the benchmark's speed probe: a frozen,
// allocation-free, stdlib-only scan that copies and compares 88-byte structs
// over a ~330 KiB working set — the same memory behaviour as the product's
// by-value Pareto scans, which is what the sandbox's interference perturbs
// (a sha256 kernel did not track the product code; a JSON kernel allocates
// and was too noisy itself). Windows of kernel runs are interleaved with the
// timed work of a phase, and the phase's timings are reported as measured ×
// refNominalMs ÷ the kernel's time over the phase (wallFactor and cpuFactor in
// stats.go).
//
// The kernel, its data and refNominalMs are frozen: changing any of them
// re-bases every timing the benchmark has ever reported.

// refNominalMs is the kernel's duration on the builder's sandbox when the
// machine is quiet. It only fixes the unit of the normalised timings.
const refNominalMs = 1.0

const (
	refTables    = 5
	refPoints    = 764
	refFrontSize = 64
)

// refPoint is sized like opoint.OperatingPoint on amd64 (88 bytes).
type refPoint struct{ v [11]float64 }

var refData = newRefData()

func newRefData() *[refTables][refPoints]refPoint {
	var d [refTables][refPoints]refPoint
	// Fixed LCG: the data must not depend on -seed or on math/rand's stream.
	x := uint64(0x9E3779B97F4A7C15)
	for t := range d {
		for i := range d[t] {
			for k := range d[t][i].v {
				x = x*6364136223846793005 + 1442695040888963407
				d[t][i].v[k] = float64(x>>40) / float64(1<<24)
			}
		}
	}
	return &d
}

// refSink keeps the kernel's result live so the compiler cannot elide it.
var refSink int

// refKernel runs one by-value Pareto-style scan over the frozen tables.
func refKernel() int {
	kept := 0
	for t := 0; t < refTables; t++ {
		var front [refFrontSize]refPoint
		n := 0
		for _, p := range refData[t] { // by-value copy, like the product's scans
			dominated := false
			for i := 0; i < n; i++ {
				f := front[i]
				if f.v[0] <= p.v[0] && f.v[1] <= p.v[1] && f.v[2] <= p.v[2] && f.v[3] <= p.v[3] && f.v[4] <= p.v[4] {
					dominated = true
					break
				}
			}
			if dominated {
				continue
			}
			if n < refFrontSize {
				front[n] = p
				n++
			} else {
				front[kept%refFrontSize] = p
			}
			kept++
		}
	}
	return kept
}

// refSample runs the kernel n times back to back and returns every run's
// duration. Callers use the two views the sandbox's two kinds of interference
// call for: the mean of a window is what a timed interval of comparable
// length experiences — sustained memory-side slowdown plus its share of the
// frequent, sub-millisecond vCPU steals — and normalises wall time; the
// median of single runs dodges the steals, like CPU-time accounting does,
// and normalises CPU time.
func refSample(n int, into []time.Duration) []time.Duration {
	for i := 0; i < n; i++ {
		t0 := time.Now()
		refSink += refKernel()
		into = append(into, time.Since(t0))
	}
	return into
}

func meanDuration(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return sum / time.Duration(len(ds))
}
