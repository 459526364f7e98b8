package core

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"time"

	"github.com/harp-rm/harp/internal/alloc"
	"github.com/harp-rm/harp/internal/opoint"
	"github.com/harp-rm/harp/internal/platform"
	"github.com/harp-rm/harp/internal/telemetry"
	"github.com/harp-rm/harp/internal/workload"
)

// degradedEpochs is sum(harp_epoch_degraded_total) over the ladder's rungs:
// every epoch whose primary solve failed.
func degradedEpochs(mt *telemetry.Metrics) uint64 {
	var n uint64
	for _, rung := range []string{alloc.SourceDegradedGreedy, alloc.SourceDegradedStale, alloc.SourceFrozen} {
		n += mt.EpochDegraded.With(rung).Value()
	}
	return n
}

// panickyAllocator delegates to a real allocator, panicking whenever the
// inputs include one of the poisonous instances.
type panickyAllocator struct {
	real   Allocator
	poison map[string]bool
}

func (a *panickyAllocator) AllocateWithStats(apps []alloc.AppInput) ([]alloc.Allocation, alloc.Stats, error) {
	for _, in := range apps {
		if a.poison[in.ID] {
			panic("poisonous operating-point table: " + in.ID)
		}
	}
	return a.real.AllocateWithStats(apps)
}

// ladderManager builds a default-allocator manager (ladder armed) on the
// Odroid with journal, tracer and metrics attached.
func ladderManager(t *testing.T) (*Manager, *bytes.Buffer, *telemetry.Tracer, *telemetry.Metrics) {
	t.Helper()
	p := platform.OdroidXU3()
	profiles := workload.IntelApps()
	tables := make(map[string]*opoint.Table, len(profiles))
	for _, prof := range profiles {
		tables[prof.Name] = offlineTable(p, prof)
	}
	jbuf := &bytes.Buffer{}
	tracer := telemetry.NewTracer(0)
	mt := telemetry.NewMetrics(telemetry.NewRegistry())
	m, err := NewManager(Config{
		Platform:           p,
		OfflineTables:      tables,
		DisableExploration: true,
		Journal:            telemetry.NewJournal(jbuf),
		Tracer:             tracer,
		Metrics:            mt,
	})
	if err != nil {
		t.Fatal(err)
	}
	return m, jbuf, tracer, mt
}

// lastRecord parses the journal buffer and returns its final epoch record.
func lastRecord(t *testing.T, jbuf *bytes.Buffer) telemetry.EpochRecord {
	t.Helper()
	recs, err := telemetry.ReadJournal(bytes.NewReader(jbuf.Bytes()))
	if err != nil {
		t.Fatalf("ReadJournal: %v", err)
	}
	if len(recs) == 0 {
		t.Fatal("empty journal")
	}
	return recs[len(recs)-1]
}

func TestSolverStallFallsBackToGreedy(t *testing.T) {
	m, jbuf, _, mt := ladderManager(t)
	if err := m.Register("ep-1", "ep.C", workload.Scalable, false); err != nil {
		t.Fatal(err)
	}
	if err := m.Register("mg-1", "mg.C", workload.Scalable, false); err != nil {
		t.Fatal(err)
	}

	m.ForceDegradedSolves(1)
	m.reallocate("manual")
	rec := lastRecord(t, jbuf)
	if rec.SolveSource != alloc.SourceDegradedGreedy {
		t.Errorf("stalled epoch SolveSource = %q, want %q", rec.SolveSource, alloc.SourceDegradedGreedy)
	}
	if rec.Error != "" {
		t.Errorf("degraded-greedy epoch journalled Error %q; it pushed decisions", rec.Error)
	}
	if got := m.DegradedRung(); got != alloc.SourceDegradedGreedy {
		t.Errorf("DegradedRung = %q, want %q", got, alloc.SourceDegradedGreedy)
	}
	if msg := m.LastEpochError(); !strings.Contains(msg, "stalled") {
		t.Errorf("LastEpochError = %q, want a stall message", msg)
	}
	if got := mt.EpochDegraded.With(alloc.SourceDegradedGreedy).Value(); got != 1 {
		t.Errorf("harp_epoch_degraded_total{rung=degraded-greedy} = %d, want 1", got)
	}
	if got := degradedEpochs(mt); got != 1 {
		t.Errorf("sum(harp_epoch_degraded_total) = %d, want 1", got)
	}

	// The next epoch solves normally: the rung clears, the sticky error
	// stays for harpctl status.
	m.reallocate("manual")
	if rec := lastRecord(t, jbuf); rec.SolveSource == alloc.SourceDegradedGreedy {
		t.Error("healthy epoch still journalled as degraded")
	}
	if got := m.DegradedRung(); got != "" {
		t.Errorf("DegradedRung after recovery = %q, want empty", got)
	}
	if m.LastEpochError() == "" {
		t.Error("sticky LastEpochError cleared by recovery")
	}
}

// failingSolver stands in for a rung that cannot solve either.
type failingSolver struct{}

func (failingSolver) AllocateWithStats([]alloc.AppInput) ([]alloc.Allocation, alloc.Stats, error) {
	return nil, alloc.Stats{}, errors.New("injected solver failure")
}

func TestStallWithoutFallbackReplaysLastGood(t *testing.T) {
	// With the greedy rung failing too, a stall walks on to rung 3: replay
	// the last-known-good allocation.
	p := platform.RaptorLake()
	real, err := alloc.New(p)
	if err != nil {
		t.Fatal(err)
	}
	jbuf := &bytes.Buffer{}
	m, err := NewManager(Config{
		Platform:           p,
		Allocator:          real,
		DisableExploration: true,
		Journal:            telemetry.NewJournal(jbuf),
	})
	if err != nil {
		t.Fatal(err)
	}
	m.fallback = failingSolver{}
	rec := newRecorder(m)
	if err := m.Register("ep-1", "ep.C", workload.Scalable, false); err != nil {
		t.Fatal(err)
	}
	before, ok := rec.last["ep-1"]
	if !ok {
		t.Fatal("no decision pushed on registration")
	}

	m.ForceDegradedSolves(1)
	m.reallocate("manual")
	if jr := lastRecord(t, jbuf); jr.SolveSource != alloc.SourceDegradedStale {
		t.Errorf("SolveSource = %q, want %q", jr.SolveSource, alloc.SourceDegradedStale)
	}
	// The replay must keep the standing grant, not move or shrink it.
	after := rec.last["ep-1"]
	if after.Seq != before.Seq {
		if len(after.Grants) != len(before.Grants) || after.Vector.Key() != before.Vector.Key() {
			t.Errorf("stale replay changed the allocation: %+v -> %+v", before, after)
		}
	}
}

func TestStallWithNothingFreezesPushes(t *testing.T) {
	// A failing greedy rung and no last-known-good: rung 4 freezes the epoch.
	p := platform.RaptorLake()
	real, err := alloc.New(p)
	if err != nil {
		t.Fatal(err)
	}
	jbuf := &bytes.Buffer{}
	m, err := NewManager(Config{
		Platform:           p,
		Allocator:          real,
		DisableExploration: true,
		Journal:            telemetry.NewJournal(jbuf),
	})
	if err != nil {
		t.Fatal(err)
	}
	m.fallback = failingSolver{}
	rec := newRecorder(m)
	m.ForceDegradedSolves(1)
	if err := m.Register("ep-1", "ep.C", workload.Scalable, false); err != nil {
		t.Fatalf("Register under frozen epoch: %v", err)
	}
	if _, pushed := rec.last["ep-1"]; pushed {
		t.Error("frozen epoch pushed a decision")
	}
	jr := lastRecord(t, jbuf)
	if jr.SolveSource != alloc.SourceFrozen {
		t.Errorf("SolveSource = %q, want %q", jr.SolveSource, alloc.SourceFrozen)
	}
	if jr.Error == "" {
		t.Error("frozen epoch journalled no Error")
	}
	if len(jr.Outputs) != 0 {
		t.Errorf("frozen epoch journalled %d outputs", len(jr.Outputs))
	}

	// The stall was one epoch; the session recovers on the next solve.
	m.reallocate("manual")
	if _, pushed := rec.last["ep-1"]; !pushed {
		t.Error("no decision after the stall lifted")
	}
}

func TestSolverPanicQuarantinesPoisonousSession(t *testing.T) {
	p := platform.RaptorLake()
	real, err := alloc.New(p)
	if err != nil {
		t.Fatal(err)
	}
	pa := &panickyAllocator{real: real, poison: map[string]bool{}}
	jbuf := &bytes.Buffer{}
	tracer := telemetry.NewTracer(0)
	mt := telemetry.NewMetrics(telemetry.NewRegistry())
	m, err := NewManager(Config{
		Platform:           p,
		Allocator:          pa,
		DisableExploration: true,
		Journal:            telemetry.NewJournal(jbuf),
		Tracer:             tracer,
		Metrics:            mt,
	})
	if err != nil {
		t.Fatal(err)
	}
	rec := newRecorder(m)
	if err := m.Register("good-1", "ep.C", workload.Scalable, false); err != nil {
		t.Fatal(err)
	}
	goodBefore := rec.last["good-1"]

	// The second registration brings poisonous inputs: the solve panics,
	// the offender is attributed and quarantined, and the epoch resolves
	// via the ladder instead of crashing the manager.
	pa.poison["bad-1"] = true
	if err := m.Register("bad-1", "mg.C", workload.Scalable, false); err != nil {
		t.Fatalf("Register with poisonous table: %v", err)
	}

	infos := m.Sessions()
	byID := map[string]SessionInfo{}
	for _, info := range infos {
		byID[info.Instance] = info
	}
	if got := byID["bad-1"].Liveness; got != LivenessQuarantined {
		t.Errorf("poisonous session liveness = %v, want quarantined", got)
	}
	if got := byID["good-1"].Liveness; got != LivenessLive {
		t.Errorf("innocent session liveness = %v, want live", got)
	}
	if jr := lastRecord(t, jbuf); jr.SolveSource != alloc.SourceDegradedGreedy {
		t.Errorf("panic epoch SolveSource = %q, want %q (greedy over the survivors)", jr.SolveSource, alloc.SourceDegradedGreedy)
	}
	if goodAfter := rec.last["good-1"]; len(goodAfter.Grants) == 0 {
		t.Errorf("survivor lost its cores: %+v -> %+v", goodBefore, goodAfter)
	}
	var sawPanic bool
	for _, ev := range tracer.Events() {
		if ev.Kind == telemetry.EvSessionPanicked && ev.Instance == "bad-1" {
			sawPanic = true
		}
	}
	if !sawPanic {
		t.Error("no EvSessionPanicked trace event for the poisonous session")
	}

	// Subsequent epochs run clean: the quarantined session's inputs are
	// excluded, so the solver no longer panics.
	m.reallocate("manual")
	if got := m.DegradedRung(); got != "" {
		t.Errorf("DegradedRung after quarantine = %q, want empty (clean solve)", got)
	}
}

func TestDeadlineBudgetCutsLagrangianShort(t *testing.T) {
	// A LatencyClock past the deadline on every reading forces the
	// subgradient loop to its early cutoff: the solve still succeeds (one
	// iteration), no ladder rung engages.
	p := platform.OdroidXU3()
	profiles := workload.IntelApps()
	tables := make(map[string]*opoint.Table, len(profiles))
	for _, prof := range profiles {
		tables[prof.Name] = offlineTable(p, prof)
	}
	jbuf := &bytes.Buffer{}
	now := time.Duration(0)
	m, err := NewManager(Config{
		Platform:           p,
		OfflineTables:      tables,
		DisableExploration: true,
		Journal:            telemetry.NewJournal(jbuf),
		EpochBudget:        time.Millisecond,
		LatencyClock: func() time.Duration {
			now += 10 * time.Millisecond
			return now
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Register("ep-1", "ep.C", workload.Scalable, false); err != nil {
		t.Fatal(err)
	}
	if err := m.Register("mg-1", "mg.C", workload.Scalable, false); err != nil {
		t.Fatal(err)
	}
	rec := lastRecord(t, jbuf)
	if rec.SolveSource == alloc.SourceFrozen || rec.Error != "" {
		t.Errorf("budget-cut solve degraded to %q (error %q); want a bounded healthy solve", rec.SolveSource, rec.Error)
	}
	if rec.LambdaIters > 2 {
		t.Errorf("over-budget solve ran %d λ iterations, want early cutoff", rec.LambdaIters)
	}
	if got := m.DegradedRung(); got != "" {
		t.Errorf("DegradedRung = %q after a bounded solve", got)
	}
}
