package core

import (
	"testing"
	"time"

	"github.com/harp-rm/harp/internal/opoint"
	"github.com/harp-rm/harp/internal/platform"
	"github.com/harp-rm/harp/internal/telemetry"
	"github.com/harp-rm/harp/internal/workload"
)

func TestLivenessPolicyStates(t *testing.T) {
	var off LivenessPolicy
	if off.Enabled() {
		t.Error("zero policy enabled")
	}
	if off.StateFor(time.Hour) != LivenessLive {
		t.Error("disabled policy demoted a session")
	}
	if off.ShouldReap(time.Hour) {
		t.Error("disabled policy reaped a session")
	}

	p := DefaultLivenessPolicy()
	if err := p.Validate(); err != nil {
		t.Fatalf("default policy invalid: %v", err)
	}
	cases := []struct {
		age  time.Duration
		want Liveness
	}{
		{0, LivenessLive},
		{p.SuspectAfter, LivenessLive},
		{p.SuspectAfter + time.Millisecond, LivenessSuspect},
		{p.QuarantineAfter + time.Millisecond, LivenessQuarantined},
		{p.ReapAfter + time.Hour, LivenessQuarantined},
	}
	for _, c := range cases {
		if got := p.StateFor(c.age); got != c.want {
			t.Errorf("StateFor(%v) = %v, want %v", c.age, got, c.want)
		}
	}
	if p.ShouldReap(p.ReapAfter) {
		t.Error("reaped exactly at the deadline")
	}
	if !p.ShouldReap(p.ReapAfter + time.Millisecond) {
		t.Error("not reaped past the deadline")
	}

	bad := LivenessPolicy{SuspectAfter: time.Second, QuarantineAfter: time.Millisecond, ReapAfter: time.Minute}
	if err := bad.Validate(); err == nil {
		t.Error("unordered deadlines accepted")
	}
}

// livenessManager builds an offline two-app manager so allocations settle
// immediately and decisions are deterministic.
func livenessManager(t *testing.T, mt *telemetry.Metrics) (*Manager, *decisionRecorder) {
	t.Helper()
	plat := platform.RaptorLake()
	profA := mustProfile(t, workload.IntelApps(), "ep.C")
	profB := mustProfile(t, workload.IntelApps(), "mg.C")
	m, err := NewManager(Config{
		Platform:           plat,
		DisableExploration: true,
		Metrics:            mt,
		OfflineTables: map[string]*opoint.Table{
			profA.Name: offlineTable(plat, profA),
			profB.Name: offlineTable(plat, profB),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	rec := newRecorder(m)
	if err := m.Register("ep-1", "ep.C", workload.Scalable, false); err != nil {
		t.Fatal(err)
	}
	if err := m.Register("mg-1", "mg.C", workload.Scalable, false); err != nil {
		t.Fatal(err)
	}
	return m, rec
}

func TestQuarantineShrinksCoresAndReadmitRestores(t *testing.T) {
	mt := telemetry.NewMetrics(telemetry.NewRegistry())
	m, rec := livenessManager(t, mt)

	before := rec.last["ep-1"]
	if len(before.Grants) == 0 {
		t.Fatalf("no cores granted before quarantine: %+v", before)
	}
	survivorBefore := rec.last["mg-1"]

	if err := m.SetLiveness("ep-1", LivenessSuspect, "silent"); err != nil {
		t.Fatal(err)
	}
	if d := rec.last["ep-1"]; len(d.Grants) != len(before.Grants) {
		t.Errorf("suspect state changed the allocation: %+v", d)
	}

	if err := m.SetLiveness("ep-1", LivenessQuarantined, "silent"); err != nil {
		t.Fatal(err)
	}
	parked := rec.last["ep-1"]
	if len(parked.Grants) != 0 || !parked.Vector.IsZero() {
		t.Fatalf("quarantined session kept cores: %+v", parked)
	}
	if got := m.sessions["ep-1"].liveness; got != LivenessQuarantined {
		t.Errorf("liveness = %v, want quarantined", got)
	}
	// The survivor must absorb the freed capacity (or at least keep cores).
	survivor := rec.last["mg-1"]
	if len(survivor.Grants) < len(survivorBefore.Grants) {
		t.Errorf("survivor shrank during quarantine: %d -> %d cores",
			len(survivorBefore.Grants), len(survivor.Grants))
	}
	// Frozen learning: samples while quarantined do not count toward the
	// cadence or the table.
	measuredBefore := m.sessions["ep-1"].explorer.Table().MeasuredCount()
	for i := 0; i < 5; i++ {
		if err := m.Measure("ep-1", 10, 5); err != nil {
			t.Fatal(err)
		}
	}
	if got := m.sessions["ep-1"].explorer.Table().MeasuredCount(); got != measuredBefore {
		t.Errorf("quarantined session kept learning: %d -> %d points", measuredBefore, got)
	}
	if m.sessions["ep-1"].stableMeasurements != 0 {
		t.Error("quarantined samples advanced the stable cadence")
	}

	if err := m.SetLiveness("ep-1", LivenessLive, "resumed"); err != nil {
		t.Fatal(err)
	}
	restored := rec.last["ep-1"]
	if len(restored.Grants) == 0 {
		t.Fatalf("readmitted session got no cores: %+v", restored)
	}
	if mt.SessionsQuarantined.Value() != 1 || mt.SessionsReadmitted.Value() != 1 {
		t.Errorf("counters: quarantined=%d readmitted=%d, want 1/1",
			mt.SessionsQuarantined.Value(), mt.SessionsReadmitted.Value())
	}
}

func TestReapReallocatesSurvivors(t *testing.T) {
	mt := telemetry.NewMetrics(telemetry.NewRegistry())
	m, rec := livenessManager(t, mt)

	if err := m.Reap("ep-1"); err != nil {
		t.Fatal(err)
	}
	if _, ok := m.sessions["ep-1"]; ok {
		t.Error("reaped session still registered")
	}
	if mt.SessionsReaped.Value() != 1 {
		t.Errorf("reaped counter = %d, want 1", mt.SessionsReaped.Value())
	}
	// The survivor's standing decision must not reference any core twice and
	// the reaped session's cores must be reusable.
	survivor := rec.last["mg-1"]
	if len(survivor.Grants) == 0 {
		t.Fatal("survivor lost its allocation after reap")
	}
	if err := m.Register("ep-1", "ep.C", workload.Scalable, false); err != nil {
		t.Fatalf("re-registration after reap: %v", err)
	}
	if mt.Reconnects.Value() != 1 {
		t.Errorf("reconnects counter = %d, want 1", mt.Reconnects.Value())
	}
	if d := rec.last["ep-1"]; len(d.Grants) == 0 {
		t.Error("resumed session got no cores")
	}
}

func TestSetLivenessUnknownSession(t *testing.T) {
	m, _ := livenessManager(t, nil)
	if err := m.SetLiveness("ghost", LivenessSuspect, "silent"); err == nil {
		t.Error("unknown session accepted")
	}
	if err := m.Reap("ghost"); err == nil {
		t.Error("unknown session reaped")
	}
}

func TestSessionInfoCarriesLiveness(t *testing.T) {
	m, _ := livenessManager(t, nil)
	if err := m.SetLiveness("ep-1", LivenessQuarantined, "silent"); err != nil {
		t.Fatal(err)
	}
	for _, info := range m.Sessions() {
		switch info.Instance {
		case "ep-1":
			if info.Liveness != LivenessQuarantined {
				t.Errorf("ep-1 liveness = %v, want quarantined", info.Liveness)
			}
		case "mg-1":
			if info.Liveness != LivenessLive {
				t.Errorf("mg-1 liveness = %v, want live", info.Liveness)
			}
		}
		if info.LastReportAgeSec != -1 {
			t.Errorf("%s age = %v, want -1 (manager does not track time)",
				info.Instance, info.LastReportAgeSec)
		}
	}
}
