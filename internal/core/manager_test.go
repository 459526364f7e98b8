package core

import (
	"errors"
	"testing"

	"github.com/harp-rm/harp/internal/explore"
	"github.com/harp-rm/harp/internal/opoint"
	"github.com/harp-rm/harp/internal/platform"
	"github.com/harp-rm/harp/internal/workload"
)

// offlineTable builds a complete measured table from the workload model.
func offlineTable(p *platform.Platform, prof *workload.Profile) *opoint.Table {
	tbl := &opoint.Table{App: prof.Name, Platform: p.Name}
	for _, rv := range platform.EnumerateVectors(p, 0) {
		ev := workload.EvaluateVector(p, prof, rv)
		tbl.Upsert(opoint.OperatingPoint{Vector: rv, Utility: ev.Utility, Power: ev.PowerWatts})
	}
	return tbl
}

// decisionRecorder captures pushed decisions per instance.
type decisionRecorder struct {
	all  []Decision
	last map[string]Decision
}

func newRecorder(m *Manager) *decisionRecorder {
	r := &decisionRecorder{last: make(map[string]Decision)}
	m.OnDecision(func(d Decision) {
		r.all = append(r.all, d)
		r.last[d.Instance] = d
	})
	return r
}

func mustProfile(t *testing.T, suite []*workload.Profile, name string) *workload.Profile {
	t.Helper()
	p, err := workload.ByName(suite, name)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestNewManagerValidation(t *testing.T) {
	if _, err := NewManager(Config{}); err == nil {
		t.Error("config without platform accepted")
	}
	// Odroid cannot run online exploration (§6.4).
	if _, err := NewManager(Config{Platform: platform.OdroidXU3()}); err == nil {
		t.Error("online exploration on the Odroid accepted")
	}
	if _, err := NewManager(Config{Platform: platform.OdroidXU3(), DisableExploration: true}); err != nil {
		t.Errorf("offline Odroid manager: %v", err)
	}
}

func TestRegisterPushesDecision(t *testing.T) {
	m, err := NewManager(Config{Platform: platform.RaptorLake()})
	if err != nil {
		t.Fatal(err)
	}
	rec := newRecorder(m)
	if err := m.Register("ep-1", "ep.C", workload.Scalable, false); err != nil {
		t.Fatalf("Register: %v", err)
	}
	d, ok := rec.last["ep-1"]
	if !ok {
		t.Fatal("no decision pushed on registration")
	}
	if !d.Exploring {
		t.Error("fresh app's first decision not an exploration configuration")
	}
	if len(d.Grants) == 0 || d.Vector.IsZero() {
		t.Errorf("empty first decision: %+v", d)
	}
	if d.Threads != d.Vector.Threads() {
		t.Errorf("scalable threads = %d, want %d (match hw threads)", d.Threads, d.Vector.Threads())
	}
}

func TestRegisterValidation(t *testing.T) {
	m, err := NewManager(Config{Platform: platform.RaptorLake()})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Register("", "x", workload.Scalable, false); err == nil {
		t.Error("empty instance accepted")
	}
	if err := m.Register("a", "x", workload.Scalable, false); err != nil {
		t.Fatal(err)
	}
	if err := m.Register("a", "x", workload.Scalable, false); !errors.Is(err, ErrDuplicateSession) {
		t.Errorf("duplicate register err = %v, want ErrDuplicateSession", err)
	}
}

func TestUnknownSessionErrors(t *testing.T) {
	m, err := NewManager(Config{Platform: platform.RaptorLake()})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Measure("ghost", 1, 1); !errors.Is(err, ErrUnknownSession) {
		t.Errorf("Measure(ghost) = %v", err)
	}
	if err := m.Deregister("ghost"); !errors.Is(err, ErrUnknownSession) {
		t.Errorf("Deregister(ghost) = %v", err)
	}
	if _, err := m.Table("ghost"); !errors.Is(err, ErrUnknownSession) {
		t.Errorf("Table(ghost) = %v", err)
	}
}

func TestOfflineModeUsesDescriptionTables(t *testing.T) {
	p := platform.OdroidXU3()
	mg := mustProfile(t, workload.OdroidApps(), "mg.A")
	m, err := NewManager(Config{
		Platform:           p,
		DisableExploration: true,
		OfflineTables:      map[string]*opoint.Table{"mg.A": offlineTable(p, mg)},
	})
	if err != nil {
		t.Fatal(err)
	}
	rec := newRecorder(m)
	if err := m.Register("mg-1", "mg.A", workload.Scalable, false); err != nil {
		t.Fatal(err)
	}
	d := rec.last["mg-1"]
	if d.Exploring {
		t.Error("offline-mode decision marked exploring")
	}
	stage := stageOf(t, m, "mg-1")
	if stage != explore.StageStable {
		t.Errorf("offline stage = %v, want stable", stage)
	}
	// mg is memory-bound and bandwidth-capped: the cost-optimal allocation
	// uses a small subset of the machine instead of all eight cores.
	if got := d.Vector.TotalCores(); got >= 8 {
		t.Errorf("mg.A allocation %v uses %d cores; expected a scaled-down pick", d.Vector, got)
	}
}

// Online learning end-to-end: feeding ground-truth measurements must walk the
// session through the stages into a stable, non-exploring decision.
func TestOnlineLearningReachesStable(t *testing.T) {
	p := platform.RaptorLake()
	prof := mustProfile(t, workload.IntelApps(), "ft.C")
	m, err := NewManager(Config{
		Platform: p,
	})
	if err != nil {
		t.Fatal(err)
	}
	m.explore.MeasurementsPerPoint, m.explore.StableAfter = 2, 15
	rec := newRecorder(m)
	if err := m.Register("ft-1", "ft.C", workload.Scalable, false); err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 500; i++ {
		stage := stageOf(t, m, "ft-1")
		if stage == explore.StageStable {
			break
		}
		d := rec.last["ft-1"]
		ev := workload.EvaluateVector(p, prof, d.Vector)
		if err := m.Measure("ft-1", ev.Utility, ev.PowerWatts); err != nil {
			t.Fatalf("Measure: %v", err)
		}
	}
	stage := stageOf(t, m, "ft-1")
	if stage != explore.StageStable {
		t.Fatalf("stage after learning = %v, want stable", stage)
	}
	d := rec.last["ft-1"]
	if d.Exploring {
		t.Error("stable session still on an exploration decision")
	}
	tbl, err := m.Table("ft-1")
	if err != nil {
		t.Fatal(err)
	}
	if tbl.MeasuredCount() < 15 {
		t.Errorf("measured points = %d, want ≥ 15", tbl.MeasuredCount())
	}
	if m.AllStable() != true {
		t.Error("AllStable = false with one stable session")
	}
}

func TestDecisionsDoNotOverlap(t *testing.T) {
	p := platform.RaptorLake()
	tables := make(map[string]*opoint.Table)
	for _, name := range []string{"ep.C", "mg.C", "cg.C"} {
		tables[name] = offlineTable(p, mustProfile(t, workload.IntelApps(), name))
	}
	m, err := NewManager(Config{Platform: p, DisableExploration: true, OfflineTables: tables})
	if err != nil {
		t.Fatal(err)
	}
	rec := newRecorder(m)
	for _, name := range []string{"ep.C", "mg.C", "cg.C"} {
		if err := m.Register(name, name, workload.Scalable, false); err != nil {
			t.Fatal(err)
		}
	}
	used := make(map[int]string)
	for inst, d := range rec.last {
		if d.CoAllocated {
			continue
		}
		for _, g := range d.Grants {
			if other, ok := used[g.Core]; ok && other != inst {
				t.Errorf("core %d granted to both %s and %s", g.Core, other, inst)
			}
			used[g.Core] = inst
		}
	}
}

func TestExplorationPoolsDoNotOverlap(t *testing.T) {
	p := platform.RaptorLake()
	m, err := NewManager(Config{Platform: p})
	if err != nil {
		t.Fatal(err)
	}
	rec := newRecorder(m)
	for _, name := range []string{"a", "b", "c"} {
		if err := m.Register(name, "app-"+name, workload.Scalable, false); err != nil {
			t.Fatal(err)
		}
	}
	used := make(map[int]string)
	for inst, d := range rec.last {
		for _, g := range d.Grants {
			if other, ok := used[g.Core]; ok && other != inst {
				t.Errorf("exploring sessions %s and %s share core %d", other, inst, g.Core)
			}
			used[g.Core] = inst
		}
	}
}

func TestCoAllocationSuspendsMonitoring(t *testing.T) {
	p := platform.OdroidXU3()
	// Force overload: tables demanding the full machine for many sessions.
	prof := mustProfile(t, workload.OdroidApps(), "ep.A")
	tbl := &opoint.Table{App: "hungry", Platform: p.Name}
	full := p.Capacity()
	ev := workload.EvaluateVector(p, prof, full)
	tbl.Upsert(opoint.OperatingPoint{Vector: full, Utility: ev.Utility, Power: ev.PowerWatts})

	m, err := NewManager(Config{
		Platform:           p,
		DisableExploration: true,
		OfflineTables:      map[string]*opoint.Table{"hungry": tbl},
	})
	if err != nil {
		t.Fatal(err)
	}
	rec := newRecorder(m)
	for _, inst := range []string{"h1", "h2", "h3", "h4"} {
		if err := m.Register(inst, "hungry", workload.Scalable, false); err != nil {
			t.Fatal(err)
		}
	}
	var coallocated string
	for inst, d := range rec.last {
		if d.CoAllocated {
			coallocated = inst
		}
	}
	if coallocated == "" {
		t.Fatal("no co-allocated session among 4 full-machine apps on 8 cores")
	}
	// Measurements on a co-allocated session are silently dropped.
	if err := m.Measure(coallocated, 100, 100); err != nil {
		t.Fatalf("Measure(coallocated): %v", err)
	}
	tblAfter, err := m.Table(coallocated)
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range tblAfter.Points {
		if op.Measured && op.Utility == 100 {
			t.Error("co-allocated measurement leaked into the table")
		}
	}
}

func TestDeregisterReallocatesSurvivors(t *testing.T) {
	p := platform.OdroidXU3()
	prof := mustProfile(t, workload.OdroidApps(), "ep.A")
	tables := map[string]*opoint.Table{"ep.A": offlineTable(p, prof)}
	m, err := NewManager(Config{Platform: p, DisableExploration: true, OfflineTables: tables})
	if err != nil {
		t.Fatal(err)
	}
	rec := newRecorder(m)
	if err := m.Register("a", "ep.A", workload.Scalable, false); err != nil {
		t.Fatal(err)
	}
	if err := m.Register("b", "ep.A", workload.Scalable, false); err != nil {
		t.Fatal(err)
	}
	sharedCores := rec.last["a"].Vector.TotalCores()
	if err := m.Deregister("b"); err != nil {
		t.Fatal(err)
	}
	aloneCores := rec.last["a"].Vector.TotalCores()
	if aloneCores < sharedCores {
		t.Errorf("survivor shrank after peer exit: %d → %d cores", sharedCores, aloneCores)
	}
	if err := m.Deregister("a"); err != nil {
		t.Fatal(err)
	}
	if got := len(m.Sessions()); got != 0 {
		t.Errorf("sessions after all exits = %d", got)
	}
}

func TestStaticAppThreadsUntouched(t *testing.T) {
	p := platform.OdroidXU3()
	m, err := NewManager(Config{Platform: p, DisableExploration: true})
	if err != nil {
		t.Fatal(err)
	}
	rec := newRecorder(m)
	if err := m.Register("s", "static-app", workload.Static, false); err != nil {
		t.Fatal(err)
	}
	if d := rec.last["s"]; d.Threads != 0 {
		t.Errorf("static decision threads = %d, want 0 (leave unchanged)", d.Threads)
	}
}

func TestSessionsSummary(t *testing.T) {
	p := platform.RaptorLake()
	m, err := NewManager(Config{Platform: p})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Register("x", "appx", workload.Custom, true); err != nil {
		t.Fatal(err)
	}
	infos := m.Sessions()
	if len(infos) != 1 {
		t.Fatalf("sessions = %d, want 1", len(infos))
	}
	got := infos[0]
	if got.Instance != "x" || got.App != "appx" || got.Adaptivity != workload.Custom || !got.OwnUtility {
		t.Errorf("session info = %+v", got)
	}
	if got.Stage != explore.StageInitial {
		t.Errorf("fresh session stage = %v, want initial", got.Stage)
	}
	if s, ok := m.sessions["x"]; !ok || !s.ownUtility {
		t.Errorf("session x registered %v, own utility %v; want both", ok, ok && s.ownUtility)
	}
}

func TestUploadTable(t *testing.T) {
	p := platform.RaptorLake()
	prof := mustProfile(t, workload.IntelApps(), "ep.C")
	m, err := NewManager(Config{Platform: p})
	if err != nil {
		t.Fatal(err)
	}
	rec := newRecorder(m)
	if err := m.Register("e", "ep.C", workload.Scalable, false); err != nil {
		t.Fatal(err)
	}
	if err := m.UploadTable("e", nil); err == nil {
		t.Error("nil table accepted")
	}
	if err := m.UploadTable("e", offlineTable(p, prof)); err != nil {
		t.Fatalf("UploadTable: %v", err)
	}
	stage := stageOf(t, m, "e")
	if stage != explore.StageStable {
		t.Errorf("stage after full table upload = %v, want stable", stage)
	}
	if rec.last["e"].Exploring {
		t.Error("decision still exploring after full table upload")
	}
}

// Stable sessions must be reassessed after the configured number of
// measurements (§5.3: every 100).
func TestStableReallocCadence(t *testing.T) {
	p := platform.RaptorLake()
	prof := mustProfile(t, workload.IntelApps(), "ep.C")
	m, err := NewManager(Config{
		Platform:      p,
		OfflineTables: map[string]*opoint.Table{"ep.C": offlineTable(p, prof)},
	})
	if err != nil {
		t.Fatal(err)
	}
	m.reallocEvery = 10
	if err := m.Register("e", "ep.C", workload.Scalable, false); err != nil {
		t.Fatal(err)
	}
	// The session is stable (seeded); count reallocations via a probe that
	// watches allocator activity indirectly: decisions only change if the
	// allocation changes, so register a second app mid-stream and verify the
	// survivor picks up the new capacity on the cadence boundary.
	for i := 0; i < 9; i++ {
		if err := m.Measure("e", 100, 10); err != nil {
			t.Fatal(err)
		}
	}
	// The 10th measurement triggers Reallocate without error.
	if err := m.Measure("e", 100, 10); err != nil {
		t.Fatalf("cadence reallocation: %v", err)
	}
}

// Operating-point tables persist across sessions of the same application:
// a restarted app resumes learning instead of starting over (§4.3,
// self-improving resource management).
func TestExplorerPersistsAcrossSessions(t *testing.T) {
	p := platform.RaptorLake()
	prof := mustProfile(t, workload.IntelApps(), "ft.C")
	m, err := NewManager(Config{
		Platform: p,
	})
	if err != nil {
		t.Fatal(err)
	}
	m.explore.MeasurementsPerPoint, m.explore.StableAfter = 1, 50
	rec := newRecorder(m)

	if err := m.Register("run-1", "ft.C", workload.Scalable, false); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		d := rec.last["run-1"]
		ev := workload.EvaluateVector(p, prof, d.Vector)
		if err := m.Measure("run-1", ev.Utility, ev.PowerWatts); err != nil {
			t.Fatal(err)
		}
	}
	before, err := m.Table("run-1")
	if err != nil {
		t.Fatal(err)
	}
	if before.MeasuredCount() == 0 {
		t.Fatal("no points learned in the first session")
	}
	if err := m.Deregister("run-1"); err != nil {
		t.Fatal(err)
	}

	// Second execution of the same application: knowledge carries over.
	if err := m.Register("run-2", "ft.C", workload.Scalable, false); err != nil {
		t.Fatal(err)
	}
	after, err := m.Table("run-2")
	if err != nil {
		t.Fatal(err)
	}
	if after.MeasuredCount() < before.MeasuredCount() {
		t.Errorf("knowledge lost across sessions: %d → %d measured points",
			before.MeasuredCount(), after.MeasuredCount())
	}
	tables := m.LearnedTables()
	if tables["ft.C"] == nil || tables["ft.C"].MeasuredCount() != after.MeasuredCount() {
		t.Errorf("LearnedTables inconsistent with session table")
	}
}

// Phase transitions (§7 outlook extension): the RM discards in-flight
// exploration measurements and restarts the stable cadence.
func TestPhaseChangeResetsState(t *testing.T) {
	p := platform.RaptorLake()
	m, err := NewManager(Config{Platform: p})
	if err != nil {
		t.Fatal(err)
	}
	newRecorder(m)
	if err := m.Register("ph", "phased-app", workload.Scalable, false); err != nil {
		t.Fatal(err)
	}
	// Partially measure the current exploration point.
	if err := m.Measure("ph", 100, 50); err != nil {
		t.Fatal(err)
	}
	if err := m.PhaseChange("ph", "compute-stage"); err != nil {
		t.Fatalf("PhaseChange: %v", err)
	}
	infos := m.Sessions()
	if infos[0].Phase != "compute-stage" {
		t.Errorf("phase = %q, want compute-stage", infos[0].Phase)
	}
	// Measuring keeps working after the reset.
	if err := m.Measure("ph", 120, 55); err != nil {
		t.Fatalf("Measure after phase change: %v", err)
	}
	if err := m.PhaseChange("ghost", "x"); err == nil {
		t.Error("PhaseChange on unknown session accepted")
	}
}
