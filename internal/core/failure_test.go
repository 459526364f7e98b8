package core

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"github.com/harp-rm/harp/internal/alloc"
	"github.com/harp-rm/harp/internal/check"
	"github.com/harp-rm/harp/internal/opoint"
	"github.com/harp-rm/harp/internal/platform"
	"github.com/harp-rm/harp/internal/store"
	"github.com/harp-rm/harp/internal/telemetry"
	"github.com/harp-rm/harp/internal/workload"
)

// faultyAllocator delegates to a real solver and, while a fault is set,
// breaks its answer the way a custom solver can: an error, a panic, or a
// malformed result. Faults fire only on solves with two or more inputs, so
// the panic is one no single input reproduces (the ladder has nobody to
// quarantine) and a misplaced ID always has another position to be at.
type faultyAllocator struct {
	real  Allocator
	fault string
	out   []alloc.Allocation
}

func (f *faultyAllocator) AllocateWithStats(apps []alloc.AppInput) ([]alloc.Allocation, alloc.Stats, error) {
	allocs, stats, err := f.real.AllocateWithStats(apps)
	if err != nil || len(apps) < 2 {
		return allocs, stats, err
	}
	switch f.fault {
	case "error":
		return nil, alloc.Stats{}, errors.New("injected solver failure")
	case "panic":
		panic("injected solver panic")
	case "short":
		return allocs[:len(allocs)-1], stats, nil
	case "misplaced":
		f.out = append(f.out[:0], allocs...)
		f.out[0], f.out[1] = f.out[1], f.out[0]
		return f.out, stats, nil
	case "changed-out-of-range":
		stats.Changed = []int{len(apps)}
	}
	return allocs, stats, nil
}

// checkStandingDecisions asserts that every session holds a decision and
// that the standing decisions together pass the structural invariants.
func checkStandingDecisions(t *testing.T, m *Manager) {
	t.Helper()
	var inputs []alloc.AppInput
	var standing []alloc.Allocation
	for _, s := range m.order {
		if s == nil {
			continue
		}
		d := s.last
		if d == nil {
			t.Fatalf("%s holds no decision", s.instance)
		}
		inputs = append(inputs, alloc.AppInput{ID: s.instance})
		standing = append(standing, alloc.Allocation{
			ID: s.instance, Point: opoint.OperatingPoint{Vector: d.Vector}, Grants: d.Grants, CoAllocated: d.CoAllocated,
		})
	}
	if err := check.CheckAllocations(m.cfg.Platform, inputs, standing); err != nil {
		t.Fatalf("standing decisions: %v", err)
	}
	if err := check.CheckPlacement(m.cfg.Platform, standing); err != nil {
		t.Fatalf("standing decisions: %v", err)
	}
}

// TestSolverFailuresDegradeTheEpoch drives each way an injected primary
// solver can fail — an error, a panic, a short result, an ID at the wrong
// position, a Stats.Changed position out of range — through a plain and a
// coalesced manager. The operation behind the epoch must succeed, the epoch
// must be journalled as degraded-greedy, LastEpochError must name the
// defect, and every session must hold a greedy decision that passes
// check.CheckAllocations. Once the solver heals, the next epoch is healthy.
func TestSolverFailuresDegradeTheEpoch(t *testing.T) {
	p := platform.OdroidXU3()
	tables := make(map[string]*opoint.Table)
	for _, prof := range workload.IntelApps() {
		tables[prof.Name] = offlineTable(p, prof)
	}
	faults := []struct{ fault, defect string }{
		{"error", "injected solver failure"},
		{"panic", "solver panic: injected solver panic"},
		{"short", "solver returned 1 allocations for 2 inputs"},
		{"misplaced", `solver result does not hold "ep-1" at its input position 0`},
		{"changed-out-of-range", "solver reported change at position 2 of 2 inputs"},
	}
	for _, f := range faults {
		for _, coalesced := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/coalesced=%v", f.fault, coalesced), func(t *testing.T) {
				real, err := alloc.New(p)
				if err != nil {
					t.Fatal(err)
				}
				fa := &faultyAllocator{real: real}
				jbuf := &bytes.Buffer{}
				m, err := NewManager(Config{
					Platform:           p,
					Allocator:          fa,
					OfflineTables:      tables,
					DisableExploration: true,
					Coalesce:           CoalescePolicy{Enabled: coalesced},
					Journal:            telemetry.NewJournal(jbuf),
				})
				if err != nil {
					t.Fatal(err)
				}
				if err := m.Register("ep-1", "ep.C", workload.Scalable, false); err != nil {
					t.Fatal(err)
				}
				if err := m.Tick(); err != nil {
					t.Fatal(err)
				}

				fa.fault = f.fault
				if err := m.Register("mg-1", "mg.C", workload.Scalable, false); err != nil {
					t.Fatalf("Register with a failing solver: %v", err)
				}
				if err := m.Tick(); err != nil {
					t.Fatalf("Tick with a failing solver: %v", err)
				}
				rec := lastRecord(t, jbuf)
				if rec.Trigger != "register" || rec.SolveSource != alloc.SourceDegradedGreedy || rec.Error != "" {
					t.Errorf("epoch journalled trigger %q, source %q, error %q; want a degraded-greedy register epoch",
						rec.Trigger, rec.SolveSource, rec.Error)
				}
				if msg := m.LastEpochError(); !strings.Contains(msg, f.defect) {
					t.Errorf("LastEpochError = %q, want it to name %q", msg, f.defect)
				}
				for _, info := range m.Sessions() {
					if info.Liveness != LivenessLive {
						t.Errorf("%s is %v, want live: no single input is at fault", info.Instance, info.Liveness)
					}
				}
				checkStandingDecisions(t, m)

				fa.fault = ""
				m.reallocate("manual")
				if rung := m.DegradedRung(); rung != "" {
					t.Errorf("healed solver still degraded to %q", rung)
				}
				checkStandingDecisions(t, m)
			})
		}
	}
}

// registerErrorCases are every way Register can fail on a manager from
// newRecoveredManager: an empty instance or application name, a duplicate
// instance, the admission cap.
var registerErrorCases = []struct {
	name, instance, app string
	want                error
}{
	{"empty instance", "", "app", nil},
	{"empty app", "s1", "", nil},
	{"duplicate", "s0", "app", ErrDuplicateSession},
	{"admission cap", "s1", "app", ErrTooManySessions},
}

// newRecoveredManager returns a manager capped at one session whose
// snapshot held s0 (phase steady) and s1 (phase warmup), with s0 admitted
// again, and the metrics registry it reports to.
func newRecoveredManager(t *testing.T, a Allocator) (*Manager, *telemetry.Registry, *telemetry.Metrics) {
	t.Helper()
	reg := telemetry.NewRegistry()
	mt := telemetry.NewMetrics(reg)
	m, err := NewManager(Config{
		Platform:           churnTestPlatform(t),
		Allocator:          a,
		DisableExploration: true,
		Metrics:            mt,
		MaxSessions:        1,
	})
	if err != nil {
		t.Fatal(err)
	}
	recovered := &store.State{Sessions: []store.SessionState{
		{Instance: "s0", App: "app", Adaptivity: "scalable", Phase: "steady"},
		{Instance: "s1", App: "app", Adaptivity: "scalable", Phase: "warmup"},
	}}
	if err := m.ImportState(recovered, store.Recovery{}); err != nil {
		t.Fatal(err)
	}
	if err := m.Register("s0", "app", workload.Scalable, false); err != nil {
		t.Fatal(err)
	}
	return m, reg, mt
}

// TestRegisterRollbackReleasesGauges pins the metric-cardinality leak: a
// rejected registration must leave no per-instance gauge series behind, or
// rejected registrations grow the registry forever. Register has no
// rollback: every error path fails before it creates a series, and a
// failing solver degrades the epoch instead of rejecting the session.
func TestRegisterRollbackReleasesGauges(t *testing.T) {
	m, reg, _ := newRecoveredManager(t, nil)
	state := func() string {
		var prom bytes.Buffer
		reg.WritePrometheus(&prom)
		var series []string
		for _, line := range strings.Split(prom.String(), "\n") {
			if strings.Contains(line, `instance="`) {
				series = append(series, line)
			}
		}
		return fmt.Sprintf("sessions %+v\nseries %q", m.Sessions(), series)
	}
	before := state()
	if strings.Contains(before, `instance="s1"`) {
		t.Fatal("series for s1 before it registered")
	}
	for _, c := range registerErrorCases {
		err := m.Register(c.instance, c.app, workload.Scalable, false)
		if err == nil || (c.want != nil && !errors.Is(err, c.want)) {
			t.Fatalf("%s: Register = %v, want %v", c.name, err, c.want)
		}
		if after := state(); after != before {
			t.Fatalf("%s: failed Register changed sessions or series\nbefore: %s\nafter:  %s", c.name, before, after)
		}
	}
}

// TestRegisterRollbackRestoresContinuityState pins the restart-continuity
// loss: the phase to resume and the ended mark that makes a return count as
// a reconnect must survive a failed registration, so a successful retry
// still resumes the phase and counts as a reconnect. Every Register error
// path fails before it consumes either; a failing solver on the retry
// degrades the epoch and the retry still resumes.
func TestRegisterRollbackRestoresContinuityState(t *testing.T) {
	p := churnTestPlatform(t)
	real, err := alloc.New(p)
	if err != nil {
		t.Fatal(err)
	}
	fa := &faultyAllocator{real: real}
	m, _, mt := newRecoveredManager(t, fa)
	state := func() string {
		return fmt.Sprintf("phases %v ended(s1) %v reconnects %d",
			m.priorPhase, m.ended.has("s1"), mt.Reconnects.Value())
	}
	before := state()
	for _, c := range registerErrorCases {
		err := m.Register(c.instance, c.app, workload.Scalable, false)
		if err == nil || (c.want != nil && !errors.Is(err, c.want)) {
			t.Fatalf("%s: Register = %v, want %v", c.name, err, c.want)
		}
		if after := state(); after != before {
			t.Fatalf("%s: failed Register changed continuity state\nbefore: %s\nafter:  %s", c.name, before, after)
		}
	}

	m.cfg.MaxSessions = 2
	fa.fault = "error"
	if err := m.Register("s1", "app", workload.Scalable, false); err != nil {
		t.Fatalf("Register with a failing solver: %v", err)
	}
	if rung := m.DegradedRung(); rung == "" {
		t.Fatal("the injected solver failure did not degrade the epoch")
	}
	if got := m.sessions["s1"].phase; got != "warmup" {
		t.Errorf("resumed phase %q, want warmup", got)
	}
	if got := mt.Reconnects.Value(); got != 2 {
		t.Errorf("reconnects = %d, want 2 (s0 and s1 resume ended instances)", got)
	}
}
