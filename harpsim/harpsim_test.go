package harpsim

import (
	"math"
	"testing"
	"time"

	"github.com/harp-rm/harp/internal/platform"
	"github.com/harp-rm/harp/internal/sim"
	"github.com/harp-rm/harp/internal/workload"
)

func intelScenario(t *testing.T, names ...string) Scenario {
	t.Helper()
	suite := workload.IntelApps()
	var apps []*workload.Profile
	for _, n := range names {
		p, err := workload.ByName(suite, n)
		if err != nil {
			t.Fatal(err)
		}
		apps = append(apps, p)
	}
	name := names[0]
	for _, n := range names[1:] {
		name += "+" + n
	}
	return Scenario{Name: name, Platform: platform.RaptorLake(), Apps: apps}
}

func odroidScenario(t *testing.T, names ...string) Scenario {
	t.Helper()
	suite := workload.OdroidApps()
	var apps []*workload.Profile
	for _, n := range names {
		p, err := workload.ByName(suite, n)
		if err != nil {
			t.Fatal(err)
		}
		apps = append(apps, p)
	}
	return Scenario{Name: names[0], Platform: platform.OdroidXU3(), Apps: apps}
}

func mustRun(t *testing.T, sc Scenario, opts Options) *Result {
	t.Helper()
	res, err := Run(sc, opts)
	if err != nil {
		t.Fatalf("Run(%s, %s): %v", sc.Name, opts.Policy, err)
	}
	return res
}

func TestScenarioValidation(t *testing.T) {
	if err := (Scenario{}).Validate(); err == nil {
		t.Error("empty scenario accepted")
	}
	if err := (Scenario{Platform: platform.RaptorLake()}).Validate(); err == nil {
		t.Error("scenario without apps accepted")
	}
	sc := intelScenario(t, "ep.C")
	sc.Apps = append(sc.Apps, nil)
	if err := sc.Validate(); err == nil {
		t.Error("nil profile accepted")
	}
}

func TestRunUnknownPolicy(t *testing.T) {
	if _, err := Run(intelScenario(t, "ep.C"), Options{Policy: Policy(99)}); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

func TestPolicyStrings(t *testing.T) {
	tests := []struct {
		give Policy
		want string
	}{
		{PolicyCFS, "cfs"},
		{PolicyEAS, "eas"},
		{PolicyITD, "itd"},
		{PolicyHARP, "harp"},
		{PolicyHARPOffline, "harp-offline"},
		{PolicyHARPNoScaling, "harp-noscaling"},
		{PolicyHARPOverhead, "harp-overhead"},
	}
	for _, tt := range tests {
		if got := tt.give.String(); got != tt.want {
			t.Errorf("%d: %q, want %q", int(tt.give), got, tt.want)
		}
		if !tt.give.IsHARP() && (tt.give == PolicyHARP || tt.give == PolicyHARPOffline) {
			t.Errorf("%s: IsHARP wrong", tt.give)
		}
	}
}

func TestCFSBaselineMatchesClosedForm(t *testing.T) {
	sc := intelScenario(t, "ep.C")
	res := mustRun(t, sc, Options{Policy: PolicyCFS, Governor: sim.GovernorPerformance})
	want := workload.EvaluateVector(sc.Platform, sc.Apps[0], sc.Platform.Capacity()).TimeSec
	if math.Abs(res.MakespanSec-want)/want > 0.06 {
		t.Errorf("CFS ep.C makespan = %.2fs, closed form %.2fs", res.MakespanSec, want)
	}
	if res.EnergyJ <= 0 {
		t.Error("no energy measured")
	}
	if len(res.Apps) != 1 {
		t.Errorf("per-app results = %d, want 1", len(res.Apps))
	}
}

// The headline mechanism: with offline operating points, HARP must cut mg.C's
// energy hard (memory-bound → E-cores) without a big slowdown.
func TestHARPOfflineSavesEnergyOnMG(t *testing.T) {
	sc := intelScenario(t, "mg.C")
	cfs := mustRun(t, sc, Options{Policy: PolicyCFS})
	tables := OfflineDSETables(sc.Platform, sc.Apps)
	harp := mustRun(t, sc, Options{Policy: PolicyHARPOffline, OfflineTables: tables})

	energyGain := cfs.EnergyJ / harp.EnergyJ
	slowdown := harp.MakespanSec / cfs.MakespanSec
	if energyGain < 1.2 {
		t.Errorf("HARP(offline) energy gain on mg.C = %.2f×, want > 1.2×", energyGain)
	}
	if slowdown > 1.4 {
		t.Errorf("HARP(offline) slowdown on mg.C = %.2f×, want < 1.4×", slowdown)
	}
}

// binpack: HARP must fix the queue collapse (paper: 6.91×).
func TestHARPOfflineFixesBinpack(t *testing.T) {
	sc := intelScenario(t, "binpack")
	cfs := mustRun(t, sc, Options{Policy: PolicyCFS})
	tables := OfflineDSETables(sc.Platform, sc.Apps)
	harp := mustRun(t, sc, Options{Policy: PolicyHARPOffline, OfflineTables: tables})
	speedup := cfs.MakespanSec / harp.MakespanSec
	if speedup < 3 {
		t.Errorf("HARP(offline) binpack speedup = %.2f×, want > 3×", speedup)
	}
}

// Multi-application: HARP must beat CFS on both metrics by scaling apps down
// to their partitions (§6.3.2).
func TestHARPOfflineMultiAppBeatsCFS(t *testing.T) {
	sc := intelScenario(t, "cg.C", "ft.C", "mg.C")
	cfs := mustRun(t, sc, Options{Policy: PolicyCFS})
	tables := OfflineDSETables(sc.Platform, sc.Apps)
	harp := mustRun(t, sc, Options{Policy: PolicyHARPOffline, OfflineTables: tables})

	if harp.MakespanSec >= cfs.MakespanSec {
		t.Errorf("HARP multi-app makespan %.2fs not below CFS %.2fs", harp.MakespanSec, cfs.MakespanSec)
	}
	if harp.EnergyJ >= cfs.EnergyJ {
		t.Errorf("HARP multi-app energy %.0fJ not below CFS %.0fJ", harp.EnergyJ, cfs.EnergyJ)
	}
}

// Without application adaptation, restricting affinity alone must hurt badly
// (§6.3: geomeans 0.5–0.6×).
func TestNoScalingCollapse(t *testing.T) {
	sc := intelScenario(t, "ft.C", "cg.C")
	tables := OfflineDSETables(sc.Platform, sc.Apps)
	harp := mustRun(t, sc, Options{Policy: PolicyHARPOffline, OfflineTables: tables})
	noscale := mustRun(t, sc, Options{Policy: PolicyHARPNoScaling, OfflineTables: tables})
	if noscale.MakespanSec <= harp.MakespanSec {
		t.Errorf("NoScaling makespan %.2fs not above HARP %.2fs", noscale.MakespanSec, harp.MakespanSec)
	}
}

// Overhead mode: monitoring + communication without adaptation must stay
// within a few percent of plain CFS (§6.6).
func TestOverheadModeNearCFS(t *testing.T) {
	sc := intelScenario(t, "ft.C")
	cfs := mustRun(t, sc, Options{Policy: PolicyCFS})
	ovh := mustRun(t, sc, Options{Policy: PolicyHARPOverhead})
	ratio := ovh.MakespanSec / cfs.MakespanSec
	if ratio < 1.0 || ratio > 1.05 {
		t.Errorf("overhead-mode makespan ratio = %.4f, want (1.00, 1.05]", ratio)
	}
}

// Online learning: a repeating workload must reach the stable stage within
// roughly the paper's 30 s horizon.
func TestLearnTablesReachesStable(t *testing.T) {
	sc := intelScenario(t, "ft.C")
	lr, err := LearnTables(sc, 90*time.Second, 5*time.Second, Options{Seed: 1})
	if err != nil {
		t.Fatalf("LearnTables: %v", err)
	}
	if lr.StableAfterSec < 0 {
		t.Fatal("never reached the stable stage in 90s")
	}
	if lr.StableAfterSec > 60 {
		t.Errorf("stable after %.1fs, want < 60s (paper: ≈30s)", lr.StableAfterSec)
	}
	tbl := lr.Tables["ft.C"]
	if tbl == nil || tbl.MeasuredCount() < 20 {
		t.Fatalf("learned table = %+v, want ≥ 20 measured points", tbl)
	}
	if len(lr.Snapshots) < 10 {
		t.Errorf("snapshots = %d, want ≥ 10 over 90s at 5s", len(lr.Snapshots))
	}
	var sawLearning, sawStable bool
	for _, s := range lr.Snapshots {
		if s.AllStable {
			sawStable = true
		} else {
			sawLearning = true
		}
	}
	if !sawLearning || !sawStable {
		t.Errorf("snapshots did not cover both phases (learning=%v stable=%v)", sawLearning, sawStable)
	}
}

func TestLearnTablesRejectsOdroid(t *testing.T) {
	sc := odroidScenario(t, "ep.A")
	if _, err := LearnTables(sc, time.Minute, 0, Options{}); err == nil {
		t.Fatal("online learning on the Odroid accepted")
	}
}

// EAS baseline on the Odroid completes and meters per-island energy.
func TestEASOnOdroid(t *testing.T) {
	sc := odroidScenario(t, "mg.A")
	res := mustRun(t, sc, Options{Policy: PolicyEAS, Governor: sim.GovernorSchedutil})
	if res.MakespanSec <= 0 || res.EnergyJ <= 0 {
		t.Fatalf("EAS run produced %+v", res)
	}
}

// HARP (offline) on the Odroid vs EAS — the Fig. 7 mechanism.
func TestHARPOfflineOdroidSavesEnergy(t *testing.T) {
	sc := odroidScenario(t, "mg.A")
	eas := mustRun(t, sc, Options{Policy: PolicyEAS, Governor: sim.GovernorSchedutil})
	tables := OfflineDSETables(sc.Platform, sc.Apps)
	harp := mustRun(t, sc, Options{
		Policy: PolicyHARPOffline, OfflineTables: tables, Governor: sim.GovernorSchedutil,
	})
	if harp.EnergyJ >= eas.EnergyJ {
		t.Errorf("HARP(offline) mg.A energy %.1fJ not below EAS %.1fJ", harp.EnergyJ, eas.EnergyJ)
	}
}

func TestRunDeterminism(t *testing.T) {
	sc := intelScenario(t, "cg.C", "is.C")
	tables := OfflineDSETables(sc.Platform, sc.Apps)
	opts := Options{Policy: PolicyHARPOffline, OfflineTables: tables, Seed: 3}
	a := mustRun(t, sc, opts)
	b := mustRun(t, sc, opts)
	if a.MakespanSec != b.MakespanSec || a.EnergyJ != b.EnergyJ {
		t.Errorf("non-deterministic: (%.4f, %.1f) vs (%.4f, %.1f)",
			a.MakespanSec, a.EnergyJ, b.MakespanSec, b.EnergyJ)
	}
}

func TestOfflineDSETables(t *testing.T) {
	plat := platform.OdroidXU3()
	apps := workload.KPNOdroid()[:2]
	tables := OfflineDSETables(plat, apps)
	if len(tables) != 2 {
		t.Fatalf("tables = %d, want 2", len(tables))
	}
	for name, tbl := range tables {
		if tbl.MeasuredCount() != 24 {
			t.Errorf("%s: measured = %d, want 24 (full Odroid space)", name, tbl.MeasuredCount())
		}
		if err := tbl.Validate(plat); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestTimelineRecording(t *testing.T) {
	sc := intelScenario(t, "cg.C", "mg.C")
	tables := OfflineDSETables(sc.Platform, sc.Apps)
	res := mustRun(t, sc, Options{
		Policy:         PolicyHARPOffline,
		OfflineTables:  tables,
		RecordTimeline: true,
	})
	if len(res.Timeline) < 2 {
		t.Fatalf("timeline has %d events, want at least one per app", len(res.Timeline))
	}
	// Applied decisions carry a vector; the session-end event recorded at
	// each application's exit carries neither a vector nor cores.
	seen, ended := make(map[string]bool), make(map[string]bool)
	for _, ev := range res.Timeline {
		switch {
		case ev.AtSec < 0:
			t.Errorf("malformed event %+v", ev)
		case ev.VectorKey == "":
			if len(ev.Cores) != 0 || ended[ev.Instance] {
				t.Errorf("malformed session end %+v", ev)
			}
			ended[ev.Instance] = true
		default:
			if ended[ev.Instance] {
				t.Errorf("decision %+v after the session ended", ev)
			}
			seen[ev.Instance] = true
		}
	}
	if !seen["cg.C"] || !seen["mg.C"] {
		t.Errorf("timeline missing instances: %v", seen)
	}
	if !ended["cg.C"] || !ended["mg.C"] {
		t.Errorf("timeline missing session ends: %v", ended)
	}
	// Baseline policies record nothing.
	plain := mustRun(t, sc, Options{Policy: PolicyCFS, RecordTimeline: true})
	if len(plain.Timeline) != 0 {
		t.Errorf("CFS run recorded %d timeline events", len(plain.Timeline))
	}
}

func TestHARPOverheadIsHARPButInert(t *testing.T) {
	sc := intelScenario(t, "cg.C")
	res := mustRun(t, sc, Options{Policy: PolicyHARPOverhead, RecordTimeline: true})
	// Decisions are dropped in libharp, so the timeline holds only the
	// application's session end.
	for _, ev := range res.Timeline {
		if ev.VectorKey != "" || len(ev.Cores) != 0 {
			t.Errorf("overhead mode applied decision %+v", ev)
		}
	}
}
