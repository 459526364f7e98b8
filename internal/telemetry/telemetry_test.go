package telemetry

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilTracerIsSafeAndFree(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Error("nil tracer enabled")
	}
	if got := tr.Now(); got != 0 {
		t.Errorf("nil Now = %v", got)
	}
	tr.SetClock(func() time.Duration { return time.Second })
	tr.Emit(Event{Kind: EvMeasureSample})
	if tr.Events() != nil || tr.Total() != 0 || tr.Dropped() != 0 {
		t.Error("nil tracer recorded something")
	}
	allocs := testing.AllocsPerRun(100, func() {
		tr.Emit(Event{Kind: EvMeasureSample, Instance: "a/1", Utility: 1, Power: 2})
	})
	if allocs != 0 {
		t.Errorf("nil Emit allocates %v/op", allocs)
	}
}

func TestTracerRingEviction(t *testing.T) {
	tr := NewTracer(4)
	var tick time.Duration
	tr.SetClock(func() time.Duration { tick += time.Millisecond; return tick })
	for i := 0; i < 10; i++ {
		tr.Emit(Event{Kind: EvMeasureSample, Seq: i})
	}
	evs := tr.Events()
	if len(evs) != 4 {
		t.Fatalf("len = %d, want 4", len(evs))
	}
	for i, ev := range evs {
		if ev.Seq != 6+i {
			t.Errorf("evs[%d].Seq = %d, want %d", i, ev.Seq, 6+i)
		}
		if ev.At == 0 {
			t.Error("event not stamped")
		}
	}
	if tr.Total() != 10 || tr.Dropped() != 6 {
		t.Errorf("total/dropped = %d/%d, want 10/6", tr.Total(), tr.Dropped())
	}
	if got := tr.Tail(2); len(got) != 2 || got[1].Seq != 9 {
		t.Errorf("Tail(2) = %+v", got)
	}
}

func TestTracerDeterministicClock(t *testing.T) {
	mk := func() []Event {
		tr := NewTracer(16)
		var now time.Duration
		tr.SetClock(func() time.Duration { return now })
		for i := 0; i < 5; i++ {
			now = time.Duration(i) * 50 * time.Millisecond
			tr.Emit(Event{Kind: EvDecisionPushed, Seq: i + 1, Instance: "x/1"})
		}
		return tr.Events()
	}
	a, b := mk(), mk()
	aj, _ := json.Marshal(a)
	bj, _ := json.Marshal(b)
	if !bytes.Equal(aj, bj) {
		t.Error("identical runs produced different event streams")
	}
}

func TestTracerConcurrentEmit(t *testing.T) {
	tr := NewTracer(128)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				tr.Emit(Event{Kind: EvMeasureSample, Seq: i})
			}
		}()
	}
	wg.Wait()
	if tr.Total() != 800 {
		t.Errorf("total = %d, want 800", tr.Total())
	}
	if len(tr.Events()) != 128 {
		t.Errorf("buffered = %d, want 128", len(tr.Events()))
	}
}

func TestCounterGaugeHistogram(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "help c")
	g := r.Gauge("g", "help g")
	h := r.Histogram("h_seconds", "help h", []float64{0.1, 1})
	c.Inc()
	c.Add(2)
	g.Set(4.5)
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)
	if c.Value() != 3 {
		t.Errorf("counter = %d", c.Value())
	}
	if g.Value() != 4.5 {
		t.Errorf("gauge = %g", g.Value())
	}
	if h.Count() != 3 || h.Sum() != 5.55 {
		t.Errorf("hist count/sum = %d/%g", h.Count(), h.Sum())
	}
	// Re-registering returns the same instrument.
	if r.Counter("c_total", "") != c {
		t.Error("counter not deduplicated")
	}
}

func TestNilInstrumentsAreSafe(t *testing.T) {
	var r *Registry
	c := r.Counter("x", "")
	g := r.Gauge("x", "")
	gv := r.GaugeVec("x", "", "l")
	h := r.Histogram("x", "", nil)
	c.Inc()
	g.Set(1)
	gv.With("a").Set(2)
	gv.Delete("a")
	h.Observe(3)
	var m *Metrics = NewMetrics(nil)
	if m != nil {
		t.Error("NewMetrics(nil) != nil")
	}
	r.WritePrometheus(&bytes.Buffer{})
	allocs := testing.AllocsPerRun(100, func() {
		c.Inc()
		g.Set(9)
		h.Observe(1)
	})
	if allocs != 0 {
		t.Errorf("nil instruments allocate %v/op", allocs)
	}
}

func TestPrometheusText(t *testing.T) {
	r := NewRegistry()
	m := NewMetrics(r)
	m.Decisions.Add(7)
	m.Sessions.Set(2)
	m.SessionUtility.With("ep.C/1").Set(123.5)
	m.AllocLatency.Observe(0.0007)
	var buf bytes.Buffer
	r.WritePrometheus(&buf)
	text := buf.String()
	for _, want := range []string{
		"# TYPE harp_decisions_total counter",
		"harp_decisions_total 7",
		"harp_sessions 2",
		`harp_session_utility{instance="ep.C/1"} 123.5`,
		"# TYPE harp_allocation_seconds histogram",
		`harp_allocation_seconds_bucket{le="0.001"} 1`,
		"harp_allocation_seconds_count 1",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("prometheus text missing %q:\n%s", want, text)
		}
	}
}

func TestExpvarPublishIdempotent(t *testing.T) {
	r := NewRegistry()
	r.Counter("v_total", "").Inc()
	r.PublishExpvar("harp-test-metrics")
	// A second publication (e.g. another server in the same process) must
	// not panic.
	NewRegistry().PublishExpvar("harp-test-metrics")
	snap := r.snapshot()
	if snap["v_total"] != uint64(1) {
		t.Errorf("snapshot = %v", snap)
	}
}

func TestJournalRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	j := NewJournal(&buf)
	recs := []EpochRecord{
		{Trigger: "register", Inputs: []EpochInput{{Instance: "a/1", App: "a", Stage: "initial"}},
			Outputs: []EpochOutput{{Instance: "a/1", Seq: 1, Vector: "P2", Threads: 2, Cores: 2}}},
		{Trigger: "cadence", AtSec: 5.05, PowerBudgetW: 42},
	}
	for _, rec := range recs {
		if err := j.Record(rec); err != nil {
			t.Fatal(err)
		}
	}
	if j.Epochs() != 2 {
		t.Errorf("epochs = %d", j.Epochs())
	}
	got, err := ReadJournal(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Epoch != 1 || got[1].Epoch != 2 {
		t.Fatalf("read back %+v", got)
	}
	if got[0].Outputs[0].Vector != "P2" || got[1].PowerBudgetW != 42 {
		t.Errorf("fields lost: %+v", got)
	}

	var nilJ *Journal
	if err := nilJ.Record(EpochRecord{}); err != nil || nilJ.Epochs() != 0 || nilJ.Err() != nil {
		t.Error("nil journal not a no-op")
	}
}

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errFail }

var errFail = &json.UnsupportedValueError{Str: "fail"}

func TestJournalStickyError(t *testing.T) {
	j := NewJournal(failWriter{})
	if err := j.Record(EpochRecord{}); err == nil {
		t.Fatal("write error not surfaced")
	}
	if j.Err() == nil {
		t.Error("error not sticky")
	}
}

func TestChromeTraceIsValidJSON(t *testing.T) {
	tr := NewTracer(64)
	var now time.Duration
	tr.SetClock(func() time.Duration { return now })
	now = 50 * time.Millisecond
	tr.Emit(Event{Kind: EvSessionRegistered, Instance: "ep.C/1", App: "ep.C"})
	now = 100 * time.Millisecond
	tr.Emit(Event{Kind: EvMeasureSample, Instance: "ep.C/1", Utility: 120, Power: 30})
	tr.Emit(Event{Kind: EvMonitorSample, Vals: [4]float64{0.04, 0.01}})
	now = 150 * time.Millisecond
	tr.Emit(Event{Kind: EvDecisionPushed, Instance: "ep.C/1", Vector: "P4", Seq: 2, Exploring: true})

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var evs []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &evs); err != nil {
		t.Fatalf("trace is not a JSON array: %v", err)
	}
	// 4 events + 2 thread-name metadata records (ep.C/1 and the rm track).
	if len(evs) != 6 {
		t.Fatalf("chrome events = %d, want 6", len(evs))
	}
	phases := map[string]int{}
	for _, ev := range evs {
		phases[ev["ph"].(string)]++
		if _, ok := ev["ts"]; !ok && ev["ph"] != "M" {
			t.Errorf("event without ts: %v", ev)
		}
	}
	if phases["C"] != 2 || phases["i"] != 2 || phases["M"] != 2 {
		t.Errorf("phase histogram = %v", phases)
	}
}

func TestEventKindStrings(t *testing.T) {
	kinds := []EventKind{
		EvSessionRegistered, EvSessionExited, EvMeasureSample, EvTableUpdated,
		EvExplorationStep, EvAllocationComputed, EvDecisionPushed,
		EvMonitorSample, EvAppSample, EvPhaseChange,
	}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if s == "event(?)" || seen[s] {
			t.Errorf("kind %d has bad/duplicate name %q", k, s)
		}
		seen[s] = true
	}
}

// TestEventKindJSONRoundTrip: every kind decodes back from its JSON name,
// and an unknown name decodes to the zero kind instead of failing.
func TestEventKindJSONRoundTrip(t *testing.T) {
	for k := EvSessionRegistered; k <= EvClusterFailover; k++ {
		b, err := json.Marshal(Event{Kind: k})
		if err != nil {
			t.Fatal(err)
		}
		var ev Event
		if err := json.Unmarshal(b, &ev); err != nil || ev.Kind != k {
			t.Errorf("kind %s: decoded %v, err %v", k, ev.Kind, err)
		}
	}
	var k EventKind = EvDecisionPushed
	if err := json.Unmarshal([]byte(`"from-the-future"`), &k); err != nil || k != 0 {
		t.Errorf("unknown name: kind %v, err %v", k, err)
	}
}
