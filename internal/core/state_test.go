package core

import (
	"errors"
	"strings"
	"testing"

	"github.com/harp-rm/harp/internal/explore"
	"github.com/harp-rm/harp/internal/platform"
	"github.com/harp-rm/harp/internal/store"
	"github.com/harp-rm/harp/internal/telemetry"
	"github.com/harp-rm/harp/internal/workload"
)

// stageOf reads a session's exploration stage from Sessions.
func stageOf(t *testing.T, m *Manager, instance string) explore.Stage {
	t.Helper()
	for _, info := range m.Sessions() {
		if info.Instance == instance {
			return info.Stage
		}
	}
	t.Fatalf("no session %s", instance)
	return 0
}

// driveToStable feeds Measure samples until the session graduates (or the
// iteration budget runs out).
func driveToStable(t *testing.T, m *Manager, instance string) {
	t.Helper()
	for i := 0; i < 500; i++ {
		if stageOf(t, m, instance) == explore.StageStable {
			return
		}
		if err := m.Measure(instance, 100+float64(i), 10); err != nil {
			t.Fatalf("Measure: %v", err)
		}
	}
	t.Fatal("session never graduated")
}

func TestWarmRestartThroughStore(t *testing.T) {
	dir := t.TempDir()
	st1, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m1, err := NewManager(Config{
		Platform: platform.RaptorLake(),
		Store:    st1,
	})
	if err != nil {
		t.Fatal(err)
	}
	m1.explore.MeasurementsPerPoint, m1.explore.StableAfter = 1, 5
	newRecorder(m1)
	if err := m1.Register("ep-1", "ep.C", workload.Scalable, false); err != nil {
		t.Fatal(err)
	}
	if err := m1.PhaseChange("ep-1", "solve"); err != nil {
		t.Fatal(err)
	}
	driveToStable(t, m1, "ep-1")
	measured, err := m1.Table("ep-1")
	if err != nil {
		t.Fatal(err)
	}
	preSeq := m1.seq
	st1.Close() // kill -9: no final snapshot, only WAL appends

	st2, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if got := st2.Generation(); got != 2 {
		t.Fatalf("generation = %d, want 2", got)
	}
	tracer := telemetry.NewTracer(64)
	m2, err := NewManager(Config{
		Platform: platform.RaptorLake(),
		Store:    st2,
		Tracer:   tracer,
		Metrics:  telemetry.NewMetrics(telemetry.NewRegistry()),
	})
	if err != nil {
		t.Fatal(err)
	}
	m2.explore.MeasurementsPerPoint, m2.explore.StableAfter = 1, 5
	newRecorder(m2)
	if err := m2.ImportState(st2.RecoveredState(), st2.Recovery()); err != nil {
		t.Fatal(err)
	}
	if m2.seq < preSeq {
		t.Fatalf("recovered seq %d < pre-crash %d", m2.seq, preSeq)
	}
	// The client reconnects: its table and stage must be back, no
	// re-exploration.
	if err := m2.Register("ep-1", "ep.C", workload.Scalable, false); err != nil {
		t.Fatal(err)
	}
	stage := stageOf(t, m2, "ep-1")
	if stage != explore.StageStable {
		t.Fatalf("resumed stage = %v, want stable", stage)
	}
	resumed, err := m2.Table("ep-1")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := resumed.MeasuredCount(), measured.MeasuredCount(); got < want {
		t.Fatalf("resumed measured points = %d, want >= %d", got, want)
	}
	infos := m2.Sessions()
	if len(infos) != 1 || infos[0].Phase != "solve" {
		t.Fatalf("resumed phase = %+v, want prior phase restored", infos)
	}
	if got := m2.cfg.Metrics.Reconnects.Value(); got != 1 {
		t.Fatalf("reconnects counter = %d, want 1", got)
	}
	var recovered bool
	for _, ev := range tracer.Events() {
		if ev.Kind == telemetry.EvStateRecovered && ev.Stage == "warm" {
			recovered = true
		}
	}
	if !recovered {
		t.Fatal("no warm EvStateRecovered event emitted")
	}
}

func TestImportStateColdStartJournalsRecoverError(t *testing.T) {
	var jbuf strings.Builder
	journal := telemetry.NewJournal(&jbuf)
	m, err := NewManager(Config{
		Platform: platform.RaptorLake(),
		Journal:  journal,
	})
	if err != nil {
		t.Fatal(err)
	}
	rec := store.Recovery{Generation: 1, ColdStart: true, Err: errors.New("snapshot CRC mismatch"), Corruptions: 1}
	if err := m.ImportState(store.NewState(), rec); err != nil {
		t.Fatal(err)
	}
	out := jbuf.String()
	if !strings.Contains(out, `"trigger":"recover"`) || !strings.Contains(out, "snapshot CRC mismatch") {
		t.Fatalf("journal missing recover epoch with error: %s", out)
	}
}

func TestMaxSessionsAdmission(t *testing.T) {
	mt := telemetry.NewMetrics(telemetry.NewRegistry())
	var jbuf strings.Builder
	journal := telemetry.NewJournal(&jbuf)
	m, err := NewManager(Config{
		Platform:    platform.RaptorLake(),
		MaxSessions: 1,
		Metrics:     mt,
		Journal:     journal,
	})
	if err != nil {
		t.Fatal(err)
	}
	newRecorder(m)
	if err := m.Register("a-1", "a", workload.Scalable, false); err != nil {
		t.Fatal(err)
	}
	err = m.Register("b-1", "b", workload.Scalable, false)
	if !errors.Is(err, ErrTooManySessions) {
		t.Fatalf("over-cap register err = %v, want ErrTooManySessions", err)
	}
	if got := mt.SessionsRejected.Value(); got != 1 {
		t.Fatalf("rejected counter = %d, want 1", got)
	}
	if len(m.Sessions()) != 1 {
		t.Fatalf("rejected registration left state behind: %+v", m.Sessions())
	}
	// A duplicate of the admitted instance still reports duplicate, not cap.
	if err := m.Register("a-1", "a", workload.Scalable, false); !errors.Is(err, ErrDuplicateSession) {
		t.Fatalf("duplicate register err = %v, want ErrDuplicateSession", err)
	}
	// Freeing the slot readmits.
	if err := m.Deregister("a-1"); err != nil {
		t.Fatal(err)
	}
	if err := m.Register("b-1", "b", workload.Scalable, false); err != nil {
		t.Fatalf("register after free slot: %v", err)
	}
	if !strings.Contains(jbuf.String(), `"trigger":"rejected"`) {
		t.Fatalf("rejection not journalled: %s", jbuf.String())
	}
}

// snapshotProbe records the journal's epoch count at the moment the
// snapshot is written, to pin shutdown ordering.
type snapshotProbe struct {
	epochsAtWrite int
	journal       *telemetry.Journal
	state         *store.State
}

func (p *snapshotProbe) WriteSnapshot(st *store.State) error {
	p.epochsAtWrite = p.journal.Epochs()
	p.state = st
	return nil
}

func TestSnapshotToWritesAfterLastEpoch(t *testing.T) {
	var jbuf strings.Builder
	journal := telemetry.NewJournal(&jbuf)
	m, err := NewManager(Config{
		Platform: platform.RaptorLake(),
		Journal:  journal,
	})
	if err != nil {
		t.Fatal(err)
	}
	m.explore.MeasurementsPerPoint, m.explore.StableAfter = 1, 5
	newRecorder(m)
	if err := m.Register("ep-1", "ep.C", workload.Scalable, false); err != nil {
		t.Fatal(err)
	}
	driveToStable(t, m, "ep-1")

	probe := &snapshotProbe{journal: journal}
	if err := m.SnapshotTo(probe); err != nil {
		t.Fatal(err)
	}
	total := journal.Epochs()
	if probe.epochsAtWrite != total {
		t.Fatalf("snapshot written at epoch %d, journal ended at %d — snapshot must come after the last epoch",
			probe.epochsAtWrite, total)
	}
	lines := strings.Split(strings.TrimSpace(jbuf.String()), "\n")
	if !strings.Contains(lines[len(lines)-1], `"trigger":"snapshot"`) {
		t.Fatalf("last journal epoch is not the snapshot epoch: %s", lines[len(lines)-1])
	}
	if probe.state == nil || len(probe.state.Tables) == 0 {
		t.Fatal("snapshot state empty")
	}
}

func TestExportImportRoundTrip(t *testing.T) {
	m1, err := NewManager(Config{
		Platform: platform.RaptorLake(),
	})
	if err != nil {
		t.Fatal(err)
	}
	m1.explore.MeasurementsPerPoint, m1.explore.StableAfter = 1, 5
	newRecorder(m1)
	if err := m1.Register("ep-1", "ep.C", workload.Scalable, true); err != nil {
		t.Fatal(err)
	}
	driveToStable(t, m1, "ep-1")
	exported := m1.ExportState()
	if len(exported.Sessions) != 1 || exported.Sessions[0].Adaptivity != "scalable" || !exported.Sessions[0].OwnUtility {
		t.Fatalf("exported sessions = %+v", exported.Sessions)
	}
	if exported.Seq != m1.seq {
		t.Fatalf("exported seq = %d, want %d", exported.Seq, m1.seq)
	}

	m2, err := NewManager(Config{
		Platform: platform.RaptorLake(),
	})
	if err != nil {
		t.Fatal(err)
	}
	m2.explore.MeasurementsPerPoint, m2.explore.StableAfter = 1, 5
	if err := m2.ImportState(exported, store.Recovery{Generation: 2}); err != nil {
		t.Fatal(err)
	}
	got := m2.LearnedTables()["ep.C"]
	want := m1.LearnedTables()["ep.C"]
	if got == nil || got.MeasuredCount() != want.MeasuredCount() {
		t.Fatalf("imported table measured = %v, want %d", got, want.MeasuredCount())
	}
	// Import is once-only and rejected with live sessions.
	newRecorder(m2)
	if err := m2.Register("x-1", "x", workload.Scalable, false); err != nil {
		t.Fatal(err)
	}
	if err := m2.ImportState(exported, store.Recovery{}); err == nil {
		t.Fatal("ImportState with live sessions accepted")
	}
}
