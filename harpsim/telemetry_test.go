package harpsim

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"github.com/harp-rm/harp/internal/telemetry"
)

// tracedRun executes one scenario with the full telemetry stack attached and
// returns the serialized journal and Chrome trace plus the raw event stream.
func tracedRun(t *testing.T, sc Scenario, opts Options) (journal, trace []byte, events []telemetry.Event, res *Result) {
	t.Helper()
	var jbuf, cbuf bytes.Buffer
	tr := telemetry.NewTracer(1 << 18)
	opts.Tracer = tr
	opts.Journal = telemetry.NewJournal(&jbuf)
	if opts.Metrics == nil {
		opts.Metrics = telemetry.NewMetrics(telemetry.NewRegistry())
	}
	opts.Energy = telemetry.NewEnergyLedger()
	opts.RecordTimeline = true
	res = mustRun(t, sc, opts)
	if err := opts.Journal.Err(); err != nil {
		t.Fatalf("journal error: %v", err)
	}
	if tr.Dropped() != 0 {
		t.Fatalf("tracer evicted %d events; grow the test capacity", tr.Dropped())
	}
	if err := tr.WriteChromeTrace(&cbuf); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	return jbuf.Bytes(), cbuf.Bytes(), tr.Events(), res
}

// TestSimJournalMatchesDecisions is the telemetry acceptance check: a traced
// run must produce a JSONL journal whose epochs, concatenated, are exactly
// the decisions the RM pushed (the EvDecisionPushed stream), in order.
func TestSimJournalMatchesDecisions(t *testing.T) {
	sc := intelScenario(t, "cg.C", "is.C")
	tables := OfflineDSETables(sc.Platform, sc.Apps)
	journal, _, events, res := tracedRun(t, sc, Options{
		Policy: PolicyHARPOffline, OfflineTables: tables, Seed: 3,
	})

	var pushed []telemetry.Event
	for _, ev := range events {
		if ev.Kind == telemetry.EvDecisionPushed {
			pushed = append(pushed, ev)
		}
	}
	if len(pushed) == 0 {
		t.Fatal("run pushed no decisions")
	}
	// The timeline is the applied decisions plus one session end per exited
	// application.
	if len(res.Timeline) == 0 || len(res.Timeline) > len(pushed)+len(sc.Apps) {
		t.Errorf("timeline has %d events, pushed %d decisions for %d apps", len(res.Timeline), len(pushed), len(sc.Apps))
	}

	epochs, err := telemetry.ReadJournal(bytes.NewReader(journal))
	if err != nil {
		t.Fatalf("ReadJournal: %v", err)
	}
	if len(epochs) == 0 {
		t.Fatal("journal is empty")
	}
	var outs []telemetry.EpochOutput
	for i, rec := range epochs {
		if rec.Epoch != i+1 {
			t.Errorf("epoch %d numbered %d", i, rec.Epoch)
		}
		if rec.Trigger == "" {
			t.Errorf("epoch %d without trigger", i)
		}
		if len(rec.Inputs) == 0 && len(rec.Outputs) == 0 {
			t.Errorf("epoch %d (%s) is empty", i, rec.Trigger)
		}
		outs = append(outs, rec.Outputs...)
	}
	if len(outs) != len(pushed) {
		t.Fatalf("journal records %d decisions, run pushed %d", len(outs), len(pushed))
	}
	for i, out := range outs {
		ev := pushed[i]
		if out.Instance != ev.Instance || out.Seq != ev.Seq || out.Vector != ev.Vector ||
			out.Threads != int(ev.Vals[0]) || out.Cores != int(ev.Vals[1]) ||
			out.Exploring != ev.Exploring || out.CoAllocated != ev.CoAllocated ||
			out.PredPowerW != ev.Power {
			t.Fatalf("decision %d: journal %+v ≠ pushed %+v", i, out, ev)
		}
	}
}

// TestSimChromeTraceIsValid checks the Perfetto export of a traced run: a
// parseable trace_event array with counter tracks for every app, instant
// decision events, and per-track name metadata.
func TestSimChromeTraceIsValid(t *testing.T) {
	sc := intelScenario(t, "cg.C", "is.C")
	tables := OfflineDSETables(sc.Platform, sc.Apps)
	_, trace, _, _ := tracedRun(t, sc, Options{
		Policy: PolicyHARPOffline, OfflineTables: tables, Seed: 3,
	})

	var evs []struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Args map[string]any `json:"args"`
	}
	if err := json.Unmarshal(trace, &evs); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	byPh := map[string]int{}
	tracks := map[string]bool{}
	lastTs := 0.0
	for _, ev := range evs {
		byPh[ev.Ph]++
		if ev.Ph == "M" {
			tracks[ev.Args["name"].(string)] = true
			continue
		}
		if ev.Ts < 0 {
			t.Fatalf("negative timestamp in %+v", ev)
		}
		if ev.Ts < lastTs {
			t.Fatalf("timestamps not monotonic: %.1f after %.1f", ev.Ts, lastTs)
		}
		lastTs = ev.Ts
	}
	if byPh["C"] == 0 || byPh["i"] == 0 || byPh["M"] == 0 {
		t.Errorf("trace event mix %v, want counters, instants and metadata", byPh)
	}
	if !tracks["cg.C"] || !tracks["is.C"] || !tracks["rm"] {
		t.Errorf("trace tracks %v, want both apps and the RM", tracks)
	}
}

// TestSimTelemetryDeterministic pins the replay contract: two runs of the
// same scenario and seed serialize to byte-identical journals and traces,
// because the tracer is driven by virtual time.
func TestSimTelemetryDeterministic(t *testing.T) {
	sc := intelScenario(t, "cg.C", "is.C")
	tables := OfflineDSETables(sc.Platform, sc.Apps)
	opts := Options{Policy: PolicyHARPOffline, OfflineTables: tables, Seed: 3}
	j1, c1, _, _ := tracedRun(t, sc, opts)
	j2, c2, _, _ := tracedRun(t, sc, opts)
	if !bytes.Equal(j1, j2) {
		t.Error("journals differ between identical runs")
	}
	if !bytes.Equal(c1, c2) {
		t.Error("Chrome traces differ between identical runs")
	}
}

// TestSimPhaseSpansTraced: with the flight recorder on, the epoch phases
// show up as balanced begin/end span pairs covering the adaptation loop.
func TestSimPhaseSpansTraced(t *testing.T) {
	sc := intelScenario(t, "cg.C", "is.C")
	tables := OfflineDSETables(sc.Platform, sc.Apps)
	_, _, events, _ := tracedRun(t, sc, Options{
		Policy: PolicyHARPOffline, OfflineTables: tables, Seed: 3,
	})

	begins, ends := map[string]int{}, map[string]int{}
	for _, ev := range events {
		switch ev.Kind {
		case telemetry.EvSpanBegin:
			begins[ev.Stage]++
		case telemetry.EvSpanEnd:
			ends[ev.Stage]++
		}
	}
	for _, phase := range []string{
		telemetry.PhaseEpoch, telemetry.PhaseSnapshot, telemetry.PhaseFingerprint,
		telemetry.PhaseSolve, telemetry.PhasePush, telemetry.PhaseJournal,
		telemetry.PhaseMeasure,
	} {
		if begins[phase] == 0 {
			t.Errorf("no %s spans in a traced run", phase)
		}
		if begins[phase] != ends[phase] {
			t.Errorf("%s spans unbalanced: %d begins, %d ends", phase, begins[phase], ends[phase])
		}
	}
}

// TestSimEnergyAccounting is the energy acceptance check: a seeded run
// attributes a positive joule total, the per-session rows plus the retired
// accumulator conserve it exactly, and the journalled energy_j field is
// monotone non-decreasing across epochs.
func TestSimEnergyAccounting(t *testing.T) {
	sc := intelScenario(t, "cg.C", "is.C")
	tables := OfflineDSETables(sc.Platform, sc.Apps)
	led := telemetry.NewEnergyLedger()
	var jbuf bytes.Buffer
	mustRun(t, sc, Options{
		Policy: PolicyHARPOffline, OfflineTables: tables, Seed: 3,
		Journal: telemetry.NewJournal(&jbuf), Energy: led,
	})

	tot := led.Totals()
	if tot.Joules <= 0 {
		t.Fatalf("fleet joules = %.6f, want > 0 from a managed run", tot.Joules)
	}
	st := led.Export()
	var sum float64
	for _, se := range led.Sessions() {
		sum += se.Joules
	}
	if diff := sum + st.RetiredJoules - tot.Joules; math.Abs(diff) > 1e-9 {
		t.Errorf("energy conservation violated: sessions %.12f + retired %.12f != fleet %.12f",
			sum, st.RetiredJoules, tot.Joules)
	}

	epochs, err := telemetry.ReadJournal(bytes.NewReader(jbuf.Bytes()))
	if err != nil {
		t.Fatalf("ReadJournal: %v", err)
	}
	last := 0.0
	budgeted := false
	for i, rec := range epochs {
		if rec.EnergyJ < last {
			t.Errorf("epoch %d energy_j regressed: %.6f after %.6f", i, rec.EnergyJ, last)
		}
		last = rec.EnergyJ
		if rec.PowerBudgetW > 0 {
			budgeted = true
		}
	}
	if last <= 0 {
		t.Error("journal never recorded a positive energy_j")
	}
	if !budgeted {
		t.Error("journal never recorded a power budget")
	}
}

// TestSimOnlineExplorationTraced runs online HARP and checks the learning
// path shows up in the event stream and journal triggers.
func TestSimOnlineExplorationTraced(t *testing.T) {
	// Two apps so the first exit triggers a "deregister" reallocation epoch
	// (the last session's exit leaves nothing to decide about, so it only
	// emits the session-exited event).
	sc := intelScenario(t, "cg.C", "ep.C")
	mt := telemetry.NewMetrics(telemetry.NewRegistry())
	journal, _, events, _ := tracedRun(t, sc, Options{Policy: PolicyHARP, Seed: 5, Metrics: mt})

	kinds := map[telemetry.EventKind]int{}
	exploring := 0
	for _, ev := range events {
		kinds[ev.Kind]++
		if ev.Kind == telemetry.EvDecisionPushed && ev.Exploring {
			exploring++
		}
	}
	// harp_exploration_steps_total counts exactly the exploring decisions
	// pushed.
	if got := mt.ExplorationSteps.Value(); got == 0 || got != uint64(exploring) {
		t.Errorf("exploration steps counter = %d, want the %d exploring decisions pushed", got, exploring)
	}
	for _, k := range []telemetry.EventKind{
		telemetry.EvSessionRegistered, telemetry.EvSessionExited,
		telemetry.EvMeasureSample, telemetry.EvAppSample, telemetry.EvMonitorSample,
		telemetry.EvExplorationStep, telemetry.EvTableUpdated,
		telemetry.EvAllocationComputed, telemetry.EvDecisionPushed,
	} {
		if kinds[k] == 0 {
			t.Errorf("no %s events in an online run", k)
		}
	}

	epochs, err := telemetry.ReadJournal(bytes.NewReader(journal))
	if err != nil {
		t.Fatalf("ReadJournal: %v", err)
	}
	triggers := map[string]bool{}
	for _, rec := range epochs {
		triggers[rec.Trigger] = true
	}
	if !triggers["register"] || !triggers["deregister"] {
		t.Errorf("journal triggers %v, want session lifecycle", triggers)
	}
	if !triggers["exploration"] && !triggers["graduation"] && !triggers["cadence"] {
		t.Errorf("journal triggers %v, want learning-driven epochs", triggers)
	}
}

// Telemetry is HARP-only: baseline policies must leave the instruments
// untouched even when handed in.
func TestSimBaselineEmitsNothing(t *testing.T) {
	sc := intelScenario(t, "ep.C")
	tr := telemetry.NewTracer(64)
	var jbuf bytes.Buffer
	mustRun(t, sc, Options{
		Policy:  PolicyCFS,
		Tracer:  tr,
		Journal: telemetry.NewJournal(&jbuf),
	})
	if tr.Total() != 0 {
		t.Errorf("CFS run emitted %d events", tr.Total())
	}
	if jbuf.Len() != 0 {
		t.Errorf("CFS run wrote %d journal bytes", jbuf.Len())
	}
}
