package telemetry

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
	"time"
)

// --- Phase spans ---

// TestSpanEmitsMatchedPair: a BeginPhase/End pair lands as matched B/E
// events on the rm track and observes the enclosed duration into the
// histogram.
func TestSpanEmitsMatchedPair(t *testing.T) {
	tr := NewTracer(16)
	var now time.Duration
	tr.SetClock(func() time.Duration { return now })
	h := NewRegistry().Histogram("x_seconds", "", LatencyBuckets)

	now = 10 * time.Millisecond
	sp := tr.BeginPhase(PhaseSolve, h)
	now = 14 * time.Millisecond
	sp.End()

	evs := tr.Tail(0)
	if len(evs) != 2 || evs[0].Kind != EvSpanBegin || evs[1].Kind != EvSpanEnd {
		t.Fatalf("events = %+v, want one B/E pair", evs)
	}
	if evs[0].Stage != PhaseSolve || evs[1].Stage != PhaseSolve {
		t.Errorf("span phase = %q/%q, want %q", evs[0].Stage, evs[1].Stage, PhaseSolve)
	}
	if got := h.Sum(); math.Abs(got-0.004) > 1e-12 {
		t.Errorf("histogram observed %.6fs, want the 4ms span", got)
	}
}

// TestSpanNestingInChromeTrace renders nested spans and checks strict LIFO
// B/E matching per track — the property Perfetto needs to draw them as
// nested slices.
func TestSpanNestingInChromeTrace(t *testing.T) {
	tr := NewTracer(64)
	var now time.Duration
	tr.SetClock(func() time.Duration { return now })

	epoch := tr.BeginPhase(PhaseEpoch, nil)
	now += time.Millisecond
	solve := tr.BeginPhase(PhaseSolve, nil)
	now += time.Millisecond
	solve.End()
	repair := tr.BeginPhase(PhaseRepair, nil)
	now += time.Millisecond
	repair.End()
	now += time.Millisecond
	epoch.End()

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var evs []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &evs); err != nil {
		t.Fatalf("trace is not a JSON array: %v", err)
	}
	var stack []string
	var lastTs float64
	for _, ev := range evs {
		switch ev["ph"] {
		case "B":
			if ts := ev["ts"].(float64); ts < lastTs {
				t.Fatalf("timestamps regressed: %v after %v", ts, lastTs)
			} else {
				lastTs = ts
			}
			stack = append(stack, ev["name"].(string))
		case "E":
			if len(stack) == 0 {
				t.Fatalf("E %q without a matching B", ev["name"])
			}
			top := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if top != ev["name"].(string) {
				t.Fatalf("E %q closes B %q — spans are not LIFO", ev["name"], top)
			}
		}
	}
	if len(stack) != 0 {
		t.Fatalf("unclosed spans at end of trace: %v", stack)
	}
}

// TestSpanOnNilTracerIsFree: phase spans on a nil tracer are complete
// no-ops and never touch the histogram.
func TestSpanOnNilTracerIsFree(t *testing.T) {
	var tr *Tracer
	h := NewRegistry().Histogram("x_seconds", "", LatencyBuckets)
	sp := tr.BeginPhase(PhaseEpoch, h)
	sp.End()
	if h.Count() != 0 {
		t.Error("nil-tracer span observed into the histogram")
	}
	if n := testing.AllocsPerRun(100, func() {
		s := tr.BeginPhase(PhaseSolve, h)
		s.End()
	}); n != 0 {
		t.Errorf("nil-tracer span allocates %.1f/op, want 0", n)
	}
}

// --- Energy ledger ---

// manualLedger returns a ledger on a hand-cranked clock.
func manualLedger() (*EnergyLedger, *time.Duration) {
	led := NewEnergyLedger()
	now := new(time.Duration)
	led.SetClock(func() time.Duration { return *now })
	return led, now
}

// TestEnergyTrapezoid pins the integration rule: dJ = dt·(p0+p1)/2, and
// the first sample only anchors.
func TestEnergyTrapezoid(t *testing.T) {
	led, now := manualLedger()
	led.Observe("a", 10, 20)
	if tot := led.Totals(); tot.Joules != 0 {
		t.Fatalf("first sample integrated %.3f J, want 0 (anchor only)", tot.Joules)
	}
	*now = time.Second
	led.Observe("a", 30, 40)
	tot := led.Totals()
	if math.Abs(tot.Joules-30) > 1e-12 {
		t.Errorf("joules = %.6f, want 1s·(20+40)/2 = 30", tot.Joules)
	}
	if utilS := led.Sessions()[0].UtilityS; math.Abs(utilS-20) > 1e-12 {
		t.Errorf("utility-seconds = %.6f, want 1s·(10+30)/2 = 20", utilS)
	}
	if tot.PowerW != 40 {
		t.Errorf("fleet power = %.1f W, want the last sample's 40", tot.PowerW)
	}
}

// TestEnergyConservation: the per-session rows plus the retired
// accumulator account for every fleet joule exactly — including across
// EndSession, which folds the session into the retired bucket.
func TestEnergyConservation(t *testing.T) {
	led, now := manualLedger()
	for i := 0; i < 50; i++ {
		*now += 100 * time.Millisecond
		led.Observe("a", 10, float64(20+i%5))
		led.Observe("b", 5, float64(30+i%3))
	}
	check := func(stage string) {
		t.Helper()
		st := led.Export()
		var sum float64
		for _, se := range led.Sessions() {
			sum += se.Joules
		}
		if diff := sum + st.RetiredJoules - led.Totals().Joules; math.Abs(diff) > 1e-9 {
			t.Fatalf("%s: sessions %.12f + retired %.12f != fleet %.12f",
				stage, sum, st.RetiredJoules, led.Totals().Joules)
		}
	}
	check("both live")
	before := led.Totals()
	led.EndSession("a")
	check("a retired")
	if led.Totals().Joules != before.Joules {
		t.Error("EndSession changed the fleet total")
	}
	if len(led.Sessions()) != 1 {
		t.Errorf("sessions after EndSession = %d, want 1", len(led.Sessions()))
	}
	led.EndSession("b")
	check("all retired")
}

// TestEnergyBudgetOverrun: time only accrues while the measured fleet
// power exceeds a positive budget.
func TestEnergyBudgetOverrun(t *testing.T) {
	led, now := manualLedger()
	led.Observe("a", 1, 40)
	led.SetBudget(50) // under budget: nothing accrues
	*now = time.Second
	led.Observe("a", 1, 40)
	if tot := led.Totals(); tot.OverrunSec != 0 {
		t.Fatalf("overrun %.3fs while under budget", tot.OverrunSec)
	}
	led.SetBudget(30) // 40 W > 30 W: the clock starts
	*now = 3 * time.Second
	led.Observe("a", 1, 40)
	if tot := led.Totals(); math.Abs(tot.OverrunSec-2) > 1e-12 {
		t.Errorf("overrun = %.3fs, want the 2s spent over budget", tot.OverrunSec)
	}
}

// TestEnergyExportSeedRoundTrip: Seed restores the accumulators from an
// Export and re-anchors integration — the next sample adds no energy for
// the gap.
func TestEnergyExportSeedRoundTrip(t *testing.T) {
	led, now := manualLedger()
	led.Observe("a", 10, 20)
	*now = time.Second
	led.Observe("a", 10, 20)
	st := led.Export()

	led2, now2 := manualLedger()
	led2.Seed(st)
	tot := led2.Totals()
	if math.Abs(tot.Joules-20) > 1e-12 {
		t.Fatalf("seeded joules = %.6f, want 20", tot.Joules)
	}
	*now2 = time.Hour // a long dark gap
	led2.Observe("a", 10, 20)
	if got := led2.Totals().Joules; math.Abs(got-20) > 1e-12 {
		t.Errorf("joules after re-anchor = %.6f, want 20 (no energy invented for downtime)", got)
	}
	*now2 += time.Second
	led2.Observe("a", 10, 20)
	if got := led2.Totals().Joules; math.Abs(got-40) > 1e-12 {
		t.Errorf("joules after resumed integration = %.6f, want 40", got)
	}
}

// TestEnergyLedgerNilIsSafe: every method is a no-op (or zero) on a nil
// ledger, matching the other telemetry instruments.
func TestEnergyLedgerNilIsSafe(t *testing.T) {
	var led *EnergyLedger
	led.SetClock(func() time.Duration { return 0 })
	led.BindMetrics(nil, nil)
	led.Observe("a", 1, 2)
	led.SetBudget(10)
	led.EndSession("a")
	led.Seed(nil)
	if tot := led.Totals(); tot != (EnergyTotals{}) {
		t.Errorf("nil ledger totals = %+v, want zero", tot)
	}
	if led.Sessions() != nil || led.Export() != nil {
		t.Error("nil ledger returned non-nil rows")
	}
	if n := testing.AllocsPerRun(100, func() { led.Observe("a", 1, 2) }); n != 0 {
		t.Errorf("nil-ledger Observe allocates %.1f/op, want 0", n)
	}
}

// TestEnergyLedgerMetricsBinding: observations drive the bound float
// counters and the ledger's per-session rows, and Seed deliberately leaves
// the counters alone
// (Prometheus counter-reset semantics).
func TestEnergyLedgerMetricsBinding(t *testing.T) {
	reg := NewRegistry()
	mt := NewMetrics(reg)
	led, now := manualLedger()
	led.BindMetrics(mt.EnergyTotal, mt.BudgetOverrunSeconds)

	led.Observe("a", 1, 10)
	led.SetBudget(5)
	*now = 2 * time.Second
	led.Observe("a", 1, 10)
	if got := mt.EnergyTotal.Value(); math.Abs(got-20) > 1e-12 {
		t.Errorf("harp_energy_joules_total = %.3f, want 20", got)
	}
	if got := mt.BudgetOverrunSeconds.Value(); math.Abs(got-2) > 1e-12 {
		t.Errorf("harp_budget_overrun_seconds_total = %.3f, want 2", got)
	}
	if rows := led.Sessions(); len(rows) != 1 || math.Abs(rows[0].Joules-20) > 1e-12 {
		t.Errorf("ledger session rows = %+v, want a with 20 J", rows)
	}

	led.Seed(led.Export())
	if got := mt.EnergyTotal.Value(); math.Abs(got-20) > 1e-12 {
		t.Errorf("Seed moved the total counter to %.3f — it must never rewind or re-add", got)
	}
}

// --- New instrument types ---

func TestFloatCounterRejectsNonPositive(t *testing.T) {
	var c FloatCounter
	c.Add(2.5)
	c.Add(2.5)
	c.Add(-1)
	c.Add(0)
	c.Add(math.NaN())
	if got := c.Value(); got != 5 {
		t.Errorf("value = %v, want 5 (negative/zero/NaN ignored)", got)
	}
	var nilC *FloatCounter
	nilC.Add(1) // must not panic
}

func TestHistogramQuantile(t *testing.T) {
	h := NewRegistry().Histogram("q_seconds", "", []float64{0.01, 0.1, 1})
	if got := h.Quantile(0.99); got != 0 {
		t.Errorf("empty quantile = %v, want 0", got)
	}
	for i := 0; i < 99; i++ {
		h.Observe(0.005) // first bucket
	}
	h.Observe(0.5) // third bucket
	if got := h.Quantile(0.5); got != 0.01 {
		t.Errorf("p50 = %v, want the first bucket bound 0.01", got)
	}
	if got := h.Quantile(0.999); got != 1 {
		t.Errorf("p99.9 = %v, want the bucket bound 1", got)
	}
	h.Observe(5) // past the last bucket
	if got := h.Quantile(1); !math.IsInf(got, 1) {
		t.Errorf("p100 with an overflow observation = %v, want +Inf", got)
	}
}

// TestPrometheusHostileLabels: label values containing quotes, backslashes
// and newlines are %q-escaped in the exposition, keeping the text format
// parseable one line per sample.
func TestPrometheusHostileLabels(t *testing.T) {
	reg := NewRegistry()
	cv := reg.CounterVec("c_total", "counter", "instance")
	hv := reg.HistogramVec("h_seconds", "hist", "phase", []float64{1})
	hostile := "bad\"quote\\slash\nnewline"
	cv.With(hostile).Inc()
	hv.With(hostile).Observe(0.5)

	var buf bytes.Buffer
	reg.WritePrometheus(&buf)
	out := buf.String()
	escaped := `bad\"quote\\slash\nnewline`
	if !strings.Contains(out, `instance="`+escaped+`"`) {
		t.Errorf("counter label not escaped:\n%s", out)
	}
	if !strings.Contains(out, `phase="`+escaped+`"`) {
		t.Errorf("histogram label not escaped:\n%s", out)
	}
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if strings.Contains(line, "{") && !strings.Contains(line, "}") {
			t.Errorf("sample line split by a raw newline: %q", line)
		}
	}
	if !strings.Contains(out, `h_seconds_bucket{phase="`+escaped+`",le="+Inf"}`) {
		t.Errorf("histogram vec missing +Inf bucket:\n%s", out)
	}
}

// --- Loss accounting ---

// TestTracerDropCounting: ring evictions drive the bound counter.
func TestTracerDropCounting(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("dropped_total", "")
	tr := NewTracer(2)
	tr.CountDrops(c)
	for i := 0; i < 5; i++ {
		tr.Emit(Event{Kind: EvMeasureSample, Seq: i})
	}
	if got := c.Value(); got != 3 {
		t.Errorf("drop counter = %d, want 3 (5 emits into a 2-slot ring)", got)
	}
	if got := tr.Dropped(); got != 3 {
		t.Errorf("Dropped() = %d, want 3", got)
	}
}

// TestJournalErrorCounting: every record lost to a write error is counted,
// including records suppressed by the sticky error.
func TestJournalErrorCounting(t *testing.T) {
	reg := NewRegistry()
	m := NewMetrics(reg)
	j := NewJournal(failWriter{})
	j.CountErrors(m.JournalErrors)
	_ = j.Record(EpochRecord{})
	_ = j.Record(EpochRecord{})
	_ = j.Record(EpochRecord{})
	var buf bytes.Buffer
	reg.WritePrometheus(&buf)
	if !strings.Contains(buf.String(), "\nharp_journal_errors_total 3\n") {
		t.Errorf("scrape lacks harp_journal_errors_total 3 (counter = %d)", m.JournalErrors.Value())
	}
}
