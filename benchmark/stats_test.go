package main

import (
	"math"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, tc := range []struct{ q, want float64 }{
		{0, 1}, {0.5, 3}, {1, 5}, {0.25, 2}, {0.9, 4.6},
	} {
		if got := percentile(xs, tc.q); !near(got, tc.want) {
			t.Errorf("percentile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if xs[0] != 5 {
		t.Error("percentile sorted its input in place")
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	if got := median([]float64{4, 1, 3, 2}); !near(got, 2.5) {
		t.Errorf("median = %v, want 2.5", got)
	}
}

// TestIQRMatchesPython pins iqr against statistics.quantiles(xs, n=4) — the
// driver's spread rule — on values computed with Python 3.
func TestIQRMatchesPython(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		// q = quantiles(xs, n=4); q[2] - q[0]
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 8.25 - 2.75},
		{[]float64{10, 12, 11, 13, 30}, 21.5 - 10.5},
		{[]float64{2, 1}, 2.25 - 0.75},
	} {
		if got := iqr(tc.xs); !near(got, tc.want) {
			t.Errorf("iqr(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
	if got := iqr([]float64{7}); got != 0 {
		t.Errorf("iqr of one value = %v, want 0", got)
	}
}

func msDur(x float64) time.Duration { return time.Duration(x * float64(time.Millisecond)) }

func TestWallAndCPUFactors(t *testing.T) {
	half := []time.Duration{msDur(2 * refNominalMs), msDur(2 * refNominalMs)}
	if got := wallFactor(half); !near(got, 0.5) {
		t.Errorf("machine at half speed: wall factor %v, want 0.5", got)
	}
	if got := wallFactor([]time.Duration{msDur(refNominalMs), msDur(3 * refNominalMs)}); !near(got, 0.5) {
		t.Errorf("wall factor is not taken from the windows' mean: %v, want 0.5", got)
	}
	if got := wallFactor(nil); got != 1 {
		t.Errorf("no windows: wall factor %v, want 1", got)
	}
	// CPU time is steal-free, and so must its yardstick be: three stolen
	// kernel runs among nine move the mean, not the median.
	runs := []time.Duration{msDur(2), msDur(2), msDur(2), msDur(2), msDur(2), msDur(2), msDur(9), msDur(14), msDur(30)}
	if got := cpuFactor(runs); !near(got, refNominalMs/2) {
		t.Errorf("cpu factor %v, want %v", got, refNominalMs/2)
	}
	if got := cpuFactor(nil); got != 1 {
		t.Errorf("no runs: cpu factor %v, want 1", got)
	}
}

// TestNormalisationCancelsASlowRun is the estimator's reason to exist: a run
// on a machine twice as slow — operations and reference windows alike, with
// a burst on top that hits a minority of both — must report the normalised
// median of a run on a quiet machine.
func TestNormalisationCancelsASlowRun(t *testing.T) {
	run := func(slow float64) float64 {
		var secs []section
		var windows []time.Duration
		for i := 0; i < 100; i++ {
			burst := 1.0
			if i%10 == 0 { // a tenth of the run is three times slower still
				burst = 3
			}
			secs = append(secs, section{op: i, batch: i / 4, wall: msDur(10 * slow * burst)})
			if i%4 == 0 {
				windows = append(windows, msDur(refNominalMs*slow))
			}
		}
		return opMedian(secs) * wallFactor(windows)
	}
	quiet, slow := run(1), run(2)
	if !near(quiet, slow) {
		t.Errorf("normalised median %v on the quiet machine, %v on the slow one", quiet, slow)
	}
	if !near(quiet, 10) && !near(quiet, 15) { // a batch holds 0 or 1 burst op
		t.Errorf("normalised median %v, want a batch mean of 10 or 15", quiet)
	}
}

// TestOpMedianAveragesWithinBatches: short operations are averaged per batch
// before the median, so an operation that absorbed a steal does not vanish
// from the estimate the way it would from a per-operation median, and
// multi-section operations count as samples of their own.
func TestOpMedianAveragesWithinBatches(t *testing.T) {
	var secs []section
	for b := 0; b < 3; b++ { // three batches of four 1 ms ops, one of them 5 ms
		for k := 0; k < 4; k++ {
			w := 1.0
			if k == 0 {
				w = 5
			}
			secs = append(secs, section{op: b*4 + k, batch: b, wall: msDur(w)})
		}
	}
	if got := opMedian(secs); !near(got, 2) {
		t.Errorf("batch-mean median %v, want 2", got)
	}
	multi := []section{
		{op: 0, batch: 0, wall: msDur(30)},
		{op: 0, batch: 1, wall: msDur(25)},
		{op: 1, batch: 2, wall: msDur(40)},
		{op: 1, batch: 3, wall: msDur(40)},
		{op: -1, batch: 4, wall: msDur(999)}, // set-up: ignored
	}
	if got := opMedian(multi); !near(got, (55+80)/2.0) {
		t.Errorf("multi-section ops: median %v, want 67.5", got)
	}
	if got := opTimes(multi); len(got) != 2 || !near(got[0], 55) || !near(got[1], 80) {
		t.Errorf("opTimes = %v, want [55 80]", got)
	}
}

func TestSegmentMedianSurvivesBurst(t *testing.T) {
	segs := []segmentStat{
		{cpu: msDur(100), ops: 50},
		{cpu: msDur(100), ops: 50},
		{cpu: msDur(450), ops: 50}, // a burst inflates one segment
		{cpu: msDur(0), ops: 0},    // no ops: dropped
		{cpu: msDur(100), ops: 50},
	}
	if got := segmentMedian(segs); !near(got, 2) {
		t.Errorf("segment median %v, want 2", got)
	}
	if got := segmentMedian(nil); got != 0 {
		t.Errorf("no segments: %v, want 0", got)
	}
}

func TestSpread(t *testing.T) {
	meds, q, d := spread([][]float64{{10, 10, 10, 10}, {11, 11, 11, 11}, {10, 12, 11, 9}})
	if len(meds) != 3 || !near(meds[1], 11) {
		t.Fatalf("medians %v", meds)
	}
	if !near(d, 0.1) {
		t.Errorf("largest pairwise difference %v, want 0.1", d)
	}
	if !near(q, iqr([]float64{10, 12, 11, 9})/10.5) {
		t.Errorf("worst IQR %v", q)
	}
}

func TestRefKernelIsDeterministicAndAllocationFree(t *testing.T) {
	a, b := refKernel(), refKernel()
	if a != b || a == 0 {
		t.Fatalf("kernel results %d and %d", a, b)
	}
	if allocs := testing.AllocsPerRun(5, func() { refSink += refKernel() }); allocs != 0 {
		t.Errorf("kernel allocates %v times per run", allocs)
	}
	if got := len(refSample(3, nil)); got != 3 {
		t.Errorf("refSample returned %d runs, want 3", got)
	}
}
