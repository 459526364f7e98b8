package experiments

import (
	"bytes"
	"strings"
	"testing"
)

// quickCfg keeps the experiment tests fast; the full-scale runs back
// EXPERIMENTS.md and the root benchmarks.
func quickCfg() Config { return Config{Seed: 1, Quick: true} }

func TestFig1Shapes(t *testing.T) {
	res, err := Fig1(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Apps) != 2 {
		t.Fatalf("apps = %d, want 2 (ep.C, mg.C)", len(res.Apps))
	}
	byName := map[string]Fig1App{}
	for _, a := range res.Apps {
		byName[a.App] = a
	}
	ep, mg := byName["ep.C"], byName["mg.C"]
	if len(ep.Points) != 288 || len(mg.Points) != 288 {
		t.Fatalf("sweep sizes = (%d, %d), want 288 each", len(ep.Points), len(mg.Points))
	}

	// ep scales: its fastest configuration uses nearly the whole machine.
	epFront := ep.ParetoPoints()
	if len(epFront) == 0 {
		t.Fatal("empty ep front")
	}
	fastest := epFront[0]
	if fastest.PHyperthreads < 14 || fastest.ECores < 14 {
		t.Errorf("ep fastest config = %d P-HT, %d E — should use nearly everything", fastest.PHyperthreads, fastest.ECores)
	}
	// ep favours even P-hyperthread counts on the front (Fig. 1a).
	var even, withP int
	for _, p := range epFront {
		if p.PHyperthreads > 0 {
			withP++
			if p.PHyperthreads%2 == 0 {
				even++
			}
		}
	}
	if withP > 0 && float64(even)/float64(withP) < 0.5 {
		t.Errorf("ep front: only %d/%d P-using points have even P-HT counts", even, withP)
	}

	// mg's best-energy Pareto points avoid P-cores (Fig. 1b).
	mgFront := mg.ParetoPoints()
	bestEnergy := mgFront[0]
	for _, p := range mgFront {
		if p.EnergyJ < bestEnergy.EnergyJ {
			bestEnergy = p
		}
	}
	if bestEnergy.PHyperthreads != 0 {
		t.Errorf("mg best-energy config uses %d P-HT, want 0 (E-cores only)", bestEnergy.PHyperthreads)
	}
	// mg does not benefit from more resources (Fig. 1b): the full machine is
	// barely faster than a 10-E-core allocation but burns much more energy.
	var full, e10 *Fig1Point
	for i := range mg.Points {
		p := &mg.Points[i]
		if p.PHyperthreads == 16 && p.ECores == 16 {
			full = p
		}
		if p.PHyperthreads == 0 && p.ECores == 10 {
			e10 = p
		}
	}
	if full == nil || e10 == nil {
		t.Fatal("sweep missing reference configurations")
	}
	if e10.TimeSec > full.TimeSec*1.2 {
		t.Errorf("mg on 10 E-cores %.1fs much slower than full machine %.1fs — should be BW-bound", e10.TimeSec, full.TimeSec)
	}
	if full.EnergyJ < 1.5*e10.EnergyJ {
		t.Errorf("mg full machine energy %.0fJ not well above 10×E %.0fJ", full.EnergyJ, e10.EnergyJ)
	}

	var buf bytes.Buffer
	res.Format(&buf)
	if !strings.Contains(buf.String(), "Pareto-optimal") {
		t.Error("Format output incomplete")
	}
}

func TestFig5Shapes(t *testing.T) {
	res, err := Fig5(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	largest := res.TrainSizes[len(res.TrainSizes)-1]
	p2, ok := res.Cell("poly2", largest)
	if !ok {
		t.Fatal("missing poly2 cell")
	}
	p1, ok := res.Cell("poly1", largest)
	if !ok {
		t.Fatal("missing poly1 cell")
	}
	// Degree 2 beats degree 1 given enough data (Fig. 5, §5.2).
	if p2.MAPEIPS >= p1.MAPEIPS {
		t.Errorf("poly2 MAPE %.2f%% not below poly1 %.2f%% at n=%d", p2.MAPEIPS, p1.MAPEIPS, largest)
	}
	if p2.IGD >= p1.IGD {
		t.Errorf("poly2 IGD %.4f not below poly1 %.4f at n=%d", p2.IGD, p1.IGD, largest)
	}
	// poly2 accuracy improves with training size.
	small, _ := res.Cell("poly2", res.TrainSizes[0])
	if p2.MAPEIPS >= small.MAPEIPS {
		t.Errorf("poly2 MAPE did not improve with data: %.2f%% → %.2f%%", small.MAPEIPS, p2.MAPEIPS)
	}

	var buf bytes.Buffer
	res.Format(&buf)
	if !strings.Contains(buf.String(), "MAPE IPS") {
		t.Error("Format output incomplete")
	}
}

func TestFig6Shapes(t *testing.T) {
	res, err := Fig6(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	// Multi-application HARP beats CFS on both metrics (§6.3.2).
	harpMulti := res.GeoMulti["harp"]
	if harpMulti.Time < 1 || harpMulti.Energy < 1.1 {
		t.Errorf("HARP multi geomean = %.2fx/%.2fx, want > 1x time and > 1.1x energy", harpMulti.Time, harpMulti.Energy)
	}
	// Offline operating points do at least as well as learned ones.
	offMulti := res.GeoMulti["harp-offline"]
	if offMulti.Energy < harpMulti.Energy*0.9 {
		t.Errorf("offline multi energy %.2fx well below online %.2fx", offMulti.Energy, harpMulti.Energy)
	}
	// No-scaling collapses (§6.3.1: the critical role of adaptation).
	ns := res.GeoSingle["harp-noscaling"]
	if ns.Time > 0.9 {
		t.Errorf("NoScaling single time factor = %.2fx, want well below 1", ns.Time)
	}
	// ITD stays close to CFS for single applications (§6.3.1).
	itd := res.GeoSingle["itd"]
	if itd.Time < 0.9 || itd.Time > 1.15 {
		t.Errorf("ITD single time factor = %.2fx, want ≈ 1", itd.Time)
	}
	// binpack is the headline outlier.
	for _, row := range res.Rows {
		if row.Scenario == "binpack" {
			if f := row.Factors["harp-offline"]; f.Time < 3 {
				t.Errorf("binpack HARP(offline) speedup = %.2fx, want > 3x", f.Time)
			}
		}
	}

	var buf bytes.Buffer
	res.Format(&buf)
	if !strings.Contains(buf.String(), "geomean") {
		t.Error("Format output incomplete")
	}
}

func TestFig7Shapes(t *testing.T) {
	res, err := Fig7(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	// HARP (Offline) saves energy on the Odroid overall (§6.4: 1.27× single,
	// 1.38× multi).
	if res.GeoSingle.Energy < 1.05 {
		t.Errorf("single energy geomean = %.2fx, want > 1.05x", res.GeoSingle.Energy)
	}
	if res.GeoMulti.Energy < 1.1 || res.GeoMulti.Time < 1.0 {
		t.Errorf("multi geomean = %.2fx/%.2fx, want gains on both", res.GeoMulti.Time, res.GeoMulti.Energy)
	}
	var buf bytes.Buffer
	res.Format(&buf)
	if !strings.Contains(buf.String(), "EAS") {
		t.Error("Format output incomplete")
	}
}

func TestFig8Shapes(t *testing.T) {
	res, err := Fig8(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if res.SingleStableMean < 15 || res.SingleStableMean > 60 {
		t.Errorf("single stable onset = %.1fs, want 15–60s (paper: 29.8 ± 5.9)", res.SingleStableMean)
	}
	for _, sc := range res.Scenarios {
		if len(sc.Points) < 5 {
			t.Errorf("%s: only %d snapshots", sc.Scenario, len(sc.Points))
		}
		var sawStable bool
		for _, p := range sc.Points {
			if p.AllStable {
				sawStable = true
			}
		}
		if !sawStable {
			t.Errorf("%s never reached the stable stage", sc.Scenario)
		}
	}
	var buf bytes.Buffer
	res.Format(&buf)
	if !strings.Contains(buf.String(), "stable-stage onset") {
		t.Error("Format output incomplete")
	}
}

func TestGovernorShapes(t *testing.T) {
	res, err := Governor(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	// The governor has only a minor effect (§6.3.3): factors under the two
	// governors stay within 25 % of each other.
	for _, policy := range []string{"harp", "harp-offline"} {
		save := res.Factors[policy]["powersave"]
		perf := res.Factors[policy]["performance"]
		if ratio := perf.Energy / save.Energy; ratio < 0.75 || ratio > 1.35 {
			t.Errorf("%s: governor changed energy factor by %.2fx — should be minor", policy, ratio)
		}
	}
	var buf bytes.Buffer
	res.Format(&buf)
	if !strings.Contains(buf.String(), "powersave") {
		t.Error("Format output incomplete")
	}
}

func TestOverheadShapes(t *testing.T) {
	res, err := Overhead(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if res.SingleMean < 0 || res.SingleMean > 2 {
		t.Errorf("single-app overhead = %.2f%%, want (0, 2]%% (paper: < 1%%)", res.SingleMean)
	}
	if res.MultiMean < res.SingleMean || res.MultiMean > 5 {
		t.Errorf("multi-app overhead = %.2f%%, want above single and < 5%% (paper: ≈ 2.5%%)", res.MultiMean)
	}
	var buf bytes.Buffer
	res.Format(&buf)
	if !strings.Contains(buf.String(), "overhead") {
		t.Error("Format output incomplete")
	}
}

func TestAttributionShapes(t *testing.T) {
	res, err := Attribution(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) < 3 {
		t.Fatalf("rows = %d, want several apps", len(res.Rows))
	}
	if res.MAPE <= 0 || res.MAPE > 20 {
		t.Errorf("attribution MAPE = %.2f%%, want (0, 20]%% (paper: 8.76%%)", res.MAPE)
	}
	var buf bytes.Buffer
	res.Format(&buf)
	if !strings.Contains(buf.String(), "MAPE") {
		t.Error("Format output incomplete")
	}
}

func TestAllocAblationShapes(t *testing.T) {
	res, err := AllocAblation(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		if row.LagrangianCost > row.GreedyCost*1.05 {
			t.Errorf("%s: lagrangian cost %.1f noticeably above greedy %.1f",
				row.Scenario, row.LagrangianCost, row.GreedyCost)
		}
	}
	var buf bytes.Buffer
	res.Format(&buf)
	if !strings.Contains(buf.String(), "lagr") {
		t.Error("Format output incomplete")
	}
}

func TestExploreAblationShapes(t *testing.T) {
	res, err := ExploreAblation(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	// The heuristic's diversity must win on global model accuracy; IGD is
	// app-dependent (enumeration happens to start in the small-allocation
	// corner where bandwidth-bound fronts live).
	if res.HeuristicMAPEMean >= res.EnumerationMAPEMean {
		t.Errorf("heuristic MAPE %.1f%% not below enumeration %.1f%%",
			res.HeuristicMAPEMean, res.EnumerationMAPEMean)
	}
	if res.HeuristicMean <= 0 || res.HeuristicMean > 0.2 {
		t.Errorf("heuristic IGD mean = %.4f, want a small positive value", res.HeuristicMean)
	}
	var buf bytes.Buffer
	res.Format(&buf)
	if !strings.Contains(buf.String(), "heuristic") {
		t.Error("Format output incomplete")
	}
}

// TestFigClusterShapes checks the fleet-energy comparison's headline
// claims on a quick run: the coordinated fleet consumes less energy and
// fewer active machine-ticks than static partitioning, and no arm — not
// even the faulted one — ever exceeds the shared budget.
func TestFigClusterShapes(t *testing.T) {
	res, err := FigCluster(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	st, dy := res.Cells["static"], res.Cells["dynamic"]
	if dy.EnergyJ >= st.EnergyJ {
		t.Errorf("dynamic energy %.1fJ >= static %.1fJ — consolidation won nothing", dy.EnergyJ, st.EnergyJ)
	}
	if dy.ActiveMachineTicks >= st.ActiveMachineTicks {
		t.Errorf("dynamic active machine-ticks %.1f >= static %.1f", dy.ActiveMachineTicks, st.ActiveMachineTicks)
	}
	for arm, c := range res.Cells {
		if c.MaxFleetPowerW > res.BudgetW+1e-6 {
			t.Errorf("%s: peak fleet power %.1fW exceeds the %.1fW budget", arm, c.MaxFleetPowerW, res.BudgetW)
		}
	}
	if res.Cells["dynamic-faults"].Migrations == 0 {
		t.Error("faulted arm recorded no migrations — the kill never forced a re-home")
	}
	if df := res.Cells["dynamic-faults"]; df.EnergyJ >= st.EnergyJ {
		t.Errorf("faulted dynamic energy %.1fJ >= static %.1fJ — the win did not survive machine and coordinator kills", df.EnergyJ, st.EnergyJ)
	}
	var buf bytes.Buffer
	res.Format(&buf)
	for _, want := range []string{"fleet energy", "static", "dynamic-faults", "budget held"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("Format output missing %q:\n%s", want, buf.String())
		}
	}
}
