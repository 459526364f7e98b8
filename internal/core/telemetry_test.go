package core

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/harp-rm/harp/internal/platform"
	"github.com/harp-rm/harp/internal/telemetry"
	"github.com/harp-rm/harp/internal/workload"
)

// driveManager exercises the full lifecycle: two sessions, measurements
// through exploration, a phase change, and a deregistration.
func driveManager(t *testing.T, cfg Config) *decisionRecorder {
	t.Helper()
	m, err := NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rec := newRecorder(m)
	if err := m.Register("ep-1", "ep.C", workload.Scalable, false); err != nil {
		t.Fatal(err)
	}
	if err := m.Register("bw-1", "bw.M", workload.Scalable, false); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		if err := m.Measure("ep-1", 100+float64(i%7), 20); err != nil {
			t.Fatal(err)
		}
		if err := m.Measure("bw-1", 50, 15); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.PhaseChange("ep-1", "solver"); err != nil {
		t.Fatal(err)
	}
	if err := m.Deregister("bw-1"); err != nil {
		t.Fatal(err)
	}
	return rec
}

func TestTracerCoversAdaptationLoop(t *testing.T) {
	tr := telemetry.NewTracer(1 << 16)
	var virtual time.Duration
	tr.SetClock(func() time.Duration { virtual += time.Millisecond; return virtual })
	driveManager(t, Config{Platform: platform.RaptorLake(), Tracer: tr})

	byKind := map[telemetry.EventKind]int{}
	for _, ev := range tr.Events() {
		byKind[ev.Kind]++
	}
	for _, kind := range []telemetry.EventKind{
		telemetry.EvSessionRegistered, telemetry.EvSessionExited,
		telemetry.EvMeasureSample, telemetry.EvTableUpdated,
		telemetry.EvExplorationStep, telemetry.EvAllocationComputed,
		telemetry.EvDecisionPushed, telemetry.EvPhaseChange,
	} {
		if byKind[kind] == 0 {
			t.Errorf("no %v events emitted", kind)
		}
	}
	if byKind[telemetry.EvSessionRegistered] != 2 || byKind[telemetry.EvSessionExited] != 1 {
		t.Errorf("lifecycle events = %d/%d, want 2/1",
			byKind[telemetry.EvSessionRegistered], byKind[telemetry.EvSessionExited])
	}
	if byKind[telemetry.EvMeasureSample] != 600 {
		t.Errorf("measure samples = %d, want 600", byKind[telemetry.EvMeasureSample])
	}
	for _, ev := range tr.Events() {
		if ev.Kind == telemetry.EvDecisionPushed && ev.Vector == "" {
			t.Fatalf("decision event without vector key: %+v", ev)
		}
	}
}

func TestJournalOutputsMatchPushedDecisions(t *testing.T) {
	var buf bytes.Buffer
	j := telemetry.NewJournal(&buf)
	rec := driveManager(t, Config{Platform: platform.RaptorLake(), Journal: j})

	epochs, err := telemetry.ReadJournal(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(epochs) == 0 {
		t.Fatal("no epochs journaled")
	}
	var outs []telemetry.EpochOutput
	triggers := map[string]int{}
	for _, ep := range epochs {
		outs = append(outs, ep.Outputs...)
		triggers[ep.Trigger]++
		if len(ep.Inputs) == 0 {
			t.Errorf("epoch %d without inputs", ep.Epoch)
		}
	}
	// The journal's concatenated outputs are exactly the pushed decisions,
	// in order.
	if len(outs) != len(rec.all) {
		t.Fatalf("journal outputs = %d, pushed decisions = %d", len(outs), len(rec.all))
	}
	for i, d := range rec.all {
		o := outs[i]
		if o.Instance != d.Instance || o.Seq != d.Seq || o.Vector != d.Vector.Key() ||
			o.Threads != d.Threads || o.Cores != len(d.Grants) ||
			o.Exploring != d.Exploring || o.CoAllocated != d.CoAllocated {
			t.Fatalf("journal output %d = %+v, decision = %+v", i, o, d)
		}
	}
	for _, trig := range []string{"register", "deregister", "phase-change"} {
		if triggers[trig] == 0 {
			t.Errorf("no %q epoch journaled (have %v)", trig, triggers)
		}
	}
	if triggers["exploration"]+triggers["graduation"] == 0 {
		t.Errorf("no exploration-driven epochs journaled (have %v)", triggers)
	}
}

func TestMetricsTrackLifecycle(t *testing.T) {
	reg := telemetry.NewRegistry()
	mt := telemetry.NewMetrics(reg)
	rec := driveManager(t, Config{
		Platform: platform.RaptorLake(),
		Metrics:  mt,
		// Phase histograms are observed only on a tracer's spans.
		Tracer: telemetry.NewTracer(0),
	})

	if got := mt.Decisions.Value(); got != uint64(len(rec.all)) {
		t.Errorf("decisions counter = %d, want %d", got, len(rec.all))
	}
	if mt.Samples.Value() != 600 {
		t.Errorf("samples counter = %d, want 600", mt.Samples.Value())
	}
	if mt.Sessions.Value() != 1 {
		t.Errorf("sessions gauge = %g, want 1 (after one deregistration)", mt.Sessions.Value())
	}
	if mt.Reallocations.Value() == 0 {
		t.Error("reallocation counter empty")
	}
	// Every unfrozen epoch is one reallocation and one epoch-phase span.
	if got, want := mt.EpochPhase.With(telemetry.PhaseEpoch).Count(), mt.Reallocations.Value(); got != want {
		t.Errorf("epoch phase histogram count = %d, want %d (one per reallocation)", got, want)
	}
	if mt.CoresGranted.Value() <= 0 {
		t.Errorf("cores granted = %g", mt.CoresGranted.Value())
	}
	// Per-session facts live in Status and the journal, never in a series.
	var buf bytes.Buffer
	reg.WritePrometheus(&buf)
	if bytes.Contains(buf.Bytes(), []byte(`instance=`)) {
		t.Error("a metric carries a per-session instance label:\n" + buf.String())
	}
}

// TestMetricsScrapeIndependentOfSessions pins that /metrics carries no
// per-session series: with 1 and with 1 000 registered, measured sessions
// and an energy ledger, the exposition has the same metric lines (names and
// labels), so a scrape's size does not grow with the session count.
func TestMetricsScrapeIndependentOfSessions(t *testing.T) {
	series := func(n int) []string {
		reg := telemetry.NewRegistry()
		led := telemetry.NewEnergyLedger()
		now := time.Duration(0)
		led.SetClock(func() time.Duration { return now })
		m, err := NewManager(Config{
			Platform:           platform.RaptorLake(),
			DisableExploration: true,
			Metrics:            telemetry.NewMetrics(reg),
			Energy:             led,
			Coalesce:           CoalescePolicy{Enabled: true},
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if err := m.Register(fmt.Sprintf("s%04d", i), "ep.C", workload.Scalable, false); err != nil {
				t.Fatal(err)
			}
		}
		if err := m.Tick(); err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 2; round++ { // the second round accrues joules
			now += time.Second
			for i := 0; i < n; i++ {
				if err := m.Measure(fmt.Sprintf("s%04d", i), 10, 5); err != nil {
					t.Fatal(err)
				}
			}
		}
		if tot := led.Totals(); tot.Joules <= 0 {
			t.Fatalf("%d sessions: ledger attributed no energy", n)
		}
		var buf bytes.Buffer
		reg.WritePrometheus(&buf)
		var keys []string
		for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
			if strings.HasPrefix(line, "#") {
				continue
			}
			keys = append(keys, line[:strings.LastIndexByte(line, ' ')])
		}
		return keys
	}
	one, many := series(1), series(1000)
	if !slices.Equal(one, many) {
		t.Errorf("metric lines differ between 1 and 1000 sessions:\n1:    %q\n1000: %q", one, many)
	}
}
