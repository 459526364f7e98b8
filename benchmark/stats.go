package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the q-quantile (0..1) of xs by linear interpolation
// between order statistics; 0 for an empty sample. xs is not modified.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// iqr is the distance between the first and third quartile, computed the way
// Python's statistics.quantiles(values, n=4) does (the exclusive method), so
// the -aa report judges spreads exactly like the driver.
func iqr(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(i int) float64 { // quartile i of 4, exclusive method
		pos := float64(i) * float64(n+1) / 4
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(3) - at(1)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// wallFactor is what a phase's wall times are multiplied by:
// refNominalMs ÷ the mean of the phase's reference windows (each window is
// itself the mean of several back-to-back kernel runs, so the factor carries
// the phase's share of vCPU steals as well as its memory-side slowdown).
// Without windows the times are left as measured.
//
// The factor is taken over the whole phase on purpose. Measured on the
// builder's sandbox (370 identical 0.4 s simulator runs, each bracketed by
// kernel windows): interval and adjacent window correlate only 0.36 — the
// interference has a fast component that hits them independently — so a
// per-interval ratio was as noisy as the raw time (IQR 16.8 % vs 17.2 %);
// over 18 s blocks the correlation is 0.85 and median(interval) ÷
// mean(windows) repeats to 3.6 % where the raw median repeats to 10.9 %.
func wallFactor(windows []time.Duration) float64 {
	if mean := meanDuration(windows); mean > 0 {
		return refNominalMs / ms(mean)
	}
	return 1
}

// cpuFactor is what a phase's CPU times are multiplied by: refNominalMs ÷
// the median of the phase's single kernel runs. CPU accounting is already
// free of steal time, and so is the median single run.
func cpuFactor(runs []time.Duration) float64 {
	if len(runs) == 0 {
		return 1
	}
	xs := make([]float64, len(runs))
	for i, r := range runs {
		xs[i] = ms(r)
	}
	if med := median(xs); med > 0 {
		return refNominalMs / med
	}
	return 1
}

// section is one timed interval; batch groups the short operations that ran
// between two reference windows.
type section struct {
	op    int // operation the interval belongs to (-1 = set-up)
	batch int
	wall  time.Duration
}

// opTimes sums each operation's sections into one duration (ms), in
// operation order. Sections with op < 0 are skipped.
func opTimes(secs []section) []float64 {
	idx := map[int]int{}
	var out []float64
	for _, s := range secs {
		if s.op < 0 {
			continue
		}
		i, ok := idx[s.op]
		if !ok {
			i = len(out)
			idx[s.op] = i
			out = append(out, 0)
		}
		out[i] += ms(s.wall)
	}
	return out
}

// opMedian is the op_ms_p50 estimator before scaling. Operations shorter
// than a batch are averaged per batch first — a 40 ms batch's mean carries the
// same share of the sandbox's sub-millisecond vCPU steals as the reference
// windows do, which a per-operation median would dodge — and the median is
// taken over batches. Operations made of several sections (each its own
// batch) are samples themselves.
func opMedian(secs []section) float64 {
	type acc struct {
		sum float64
		n   int
	}
	perOp := map[int][]int{} // op → indices of its sections
	for i, s := range secs {
		if s.op >= 0 {
			perOp[s.op] = append(perOp[s.op], i)
		}
	}
	batches := map[int]*acc{}
	var samples []float64
	for _, idx := range perOp {
		if len(idx) == 1 {
			s := secs[idx[0]]
			b := batches[s.batch]
			if b == nil {
				b = &acc{}
				batches[s.batch] = b
			}
			b.sum += ms(s.wall)
			b.n++
			continue
		}
		var total float64
		for _, i := range idx {
			total += ms(secs[i].wall)
		}
		samples = append(samples, total)
	}
	for _, b := range batches {
		samples = append(samples, b.sum/float64(b.n))
	}
	return median(samples)
}

// segmentStat is one ~1 s CPU-accounting segment of whole operations.
type segmentStat struct {
	cpu time.Duration // CPU of the system under test over the segment
	ops int           // operations completed in the segment
}

// segmentMedian is the cpu_ms_per_op estimator before scaling: CPU per
// operation of each segment, median over segments — a burst that inflates
// one segment moves one sample, not the result. Segments without operations
// are dropped.
func segmentMedian(segs []segmentStat) float64 {
	var perOp []float64
	for _, s := range segs {
		if s.ops > 0 {
			perOp = append(perOp, ms(s.cpu)/float64(s.ops))
		}
	}
	return median(perOp)
}
