package experiments

import (
	"fmt"
	"io"

	"github.com/harp-rm/harp/harpsim"
	"github.com/harp-rm/harp/internal/alloc"
	"github.com/harp-rm/harp/internal/explore"
	"github.com/harp-rm/harp/internal/mathx"
	"github.com/harp-rm/harp/internal/opoint"
	"github.com/harp-rm/harp/internal/parallel"
	"github.com/harp-rm/harp/internal/platform"
	"github.com/harp-rm/harp/internal/regress"
	"github.com/harp-rm/harp/internal/workload"
)

// AllocAblationRow compares the MMKP solvers on one application mix.
type AllocAblationRow struct {
	Scenario        string
	LagrangianCost  float64
	GreedyCost      float64
	LagrangianCoAll int
	GreedyCoAll     int
}

// AllocAblationResult compares the Lagrangian-relaxation solver against the
// greedy baseline (design decision 2 in DESIGN.md).
type AllocAblationResult struct {
	Rows []AllocAblationRow
}

// AllocAblation runs the solver comparison on Intel application mixes.
func AllocAblation(cfg Config) (*AllocAblationResult, error) {
	cfg = cfg.withDefaults()
	plat := platform.RaptorLake()
	suite := workload.IntelApps()
	tables := harpsim.OfflineDSETablesParallel(plat, suite, cfg.Parallelism)

	mixes := [][]string{
		{"ep.C", "mg.C"},
		{"ft.C", "mg.C", "cg.C"},
		{"bt.C", "cg.C", "ft.C", "is.C", "lu.C"},
		{"ep.C", "cg.C", "ft.C", "mg.C", "sp.C", "ua.C", "bt.C"},
	}
	if cfg.Quick {
		mixes = mixes[:2]
	}

	// One unit per application mix; each unit runs both solvers. The shared
	// offline tables are only read (their derived-data caches are
	// mutex-guarded), so concurrent mixes cannot influence each other.
	rows, err := parallel.Map(cfg.Parallelism, len(mixes), func(i int) (AllocAblationRow, error) {
		names := mixes[i]
		label := names[0]
		inputs := make([]alloc.AppInput, 0, len(names))
		for j, n := range names {
			if j > 0 {
				label += "+" + n
			}
			inputs = append(inputs, alloc.AppInput{ID: n, Table: tables[n]})
		}
		row := AllocAblationRow{Scenario: label}
		for _, method := range []alloc.Method{alloc.Lagrangian, alloc.Greedy} {
			a, err := alloc.New(plat, alloc.WithMethod(method))
			if err != nil {
				return row, err
			}
			allocs, err := a.Allocate(inputs)
			if err != nil {
				return row, err
			}
			cost := alloc.TotalCost(allocs, inputs)
			var coAll int
			for _, al := range allocs {
				if al.CoAllocated {
					coAll++
				}
			}
			if method == alloc.Lagrangian {
				row.LagrangianCost, row.LagrangianCoAll = cost, coAll
			} else {
				row.GreedyCost, row.GreedyCoAll = cost, coAll
			}
		}
		return row, nil
	})
	if err != nil {
		return nil, err
	}
	return &AllocAblationResult{Rows: rows}, nil
}

// Format writes the allocator ablation table.
func (r *AllocAblationResult) Format(w io.Writer) {
	writeHeader(w, "Ablation: MMKP solver — Lagrangian relaxation vs greedy")
	fmt.Fprintf(w, "%-44s %12s %12s %6s %6s\n", "mix", "lagr cost", "greedy cost", "l-co", "g-co")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-44s %12.1f %12.1f %6d %6d\n",
			row.Scenario, row.LagrangianCost, row.GreedyCost, row.LagrangianCoAll, row.GreedyCoAll)
	}
}

// ExploreAblationRow compares exploration strategies after a point budget.
type ExploreAblationRow struct {
	App            string
	Budget         int
	HeuristicIGD   float64
	EnumerationIGD float64
	// HeuristicMAPE and EnumerationMAPE measure the predicted table's
	// utility accuracy across the whole configuration space — the global
	// model quality the exploration heuristic targets.
	HeuristicMAPE   float64
	EnumerationMAPE float64
}

// ExploreAblationResult compares HARP's exploration heuristics (farthest
// point + model-discrepancy targeting, §5.3) against naive in-order
// measurement of the configuration space: after an equal measurement budget,
// how close is the table the allocator sees to the true Pareto front (IGD)
// and to the true characteristics overall (MAPE)? In-order enumeration
// happens to cover the small-allocation corner where bandwidth-bound fronts
// live, so its IGD can look good per-app; the heuristic's diversity is what
// keeps the *global* model accurate.
type ExploreAblationResult struct {
	Rows []ExploreAblationRow
	// Means across apps.
	HeuristicMean, EnumerationMean         float64
	HeuristicMAPEMean, EnumerationMAPEMean float64
}

// ExploreAblation runs the exploration-strategy comparison.
func ExploreAblation(cfg Config) (*ExploreAblationResult, error) {
	cfg = cfg.withDefaults()
	plat := platform.RaptorLake()
	apps := []string{"ep.C", "mg.C", "ft.C", "lu.C", "seismic", "vgg"}
	if cfg.Quick {
		apps = apps[:3]
	}
	const budget = 25 // points measured before the stable stage (§5.3)
	suite := workload.IntelApps()
	caps := []int{8, 16}

	// One unit per application; each runs both exploration strategies against
	// its own ground-truth table.
	rows, err := parallel.Map(cfg.Parallelism, len(apps), func(i int) (ExploreAblationRow, error) {
		name := apps[i]
		prof, err := workload.ByName(suite, name)
		if err != nil {
			return ExploreAblationRow{}, err
		}
		truth := harpsim.OfflineDSETablesParallel(plat, []*workload.Profile{prof}, 1)[name]

		// Strategy A: HARP's heuristics.
		heur := explore.New(plat, name, explore.Config{MeasurementsPerPoint: 1, StableAfter: budget})
		for i := 0; i < budget; i++ {
			rv, err := heur.Next(caps)
			if err != nil {
				break
			}
			ev := workload.EvaluateVector(plat, prof, rv)
			if _, err := heur.Record(ev.Utility, ev.PowerWatts); err != nil {
				return ExploreAblationRow{}, err
			}
		}
		// Strategy B: measure the first `budget` configurations in
		// enumeration order, then predict the rest with the same model.
		enum := explore.New(plat, name, explore.Config{MeasurementsPerPoint: 1, StableAfter: budget})
		seed := &opoint.Table{App: name, Platform: plat.Name}
		for i, rv := range platform.EnumerateVectors(plat, 0) {
			if i >= budget {
				break
			}
			ev := workload.EvaluateVector(plat, prof, rv)
			seed.Upsert(opoint.OperatingPoint{Vector: rv, Utility: ev.Utility, Power: ev.PowerWatts})
		}
		enum.SeedTable(seed)

		hPred := heur.PredictedTable()
		ePred := enum.PredictedTable()
		return ExploreAblationRow{
			App: name, Budget: budget,
			HeuristicIGD: tableIGD(truth, hPred), EnumerationIGD: tableIGD(truth, ePred),
			HeuristicMAPE: tableMAPE(truth, hPred), EnumerationMAPE: tableMAPE(truth, ePred),
		}, nil
	})
	if err != nil {
		return nil, err
	}

	res := &ExploreAblationResult{Rows: rows}
	var hs, es, hm, em []float64
	for _, row := range rows {
		hs = append(hs, row.HeuristicIGD)
		es = append(es, row.EnumerationIGD)
		hm = append(hm, row.HeuristicMAPE)
		em = append(em, row.EnumerationMAPE)
	}
	res.HeuristicMean = mathx.Mean(hs)
	res.EnumerationMean = mathx.Mean(es)
	res.HeuristicMAPEMean = mathx.Mean(hm)
	res.EnumerationMAPEMean = mathx.Mean(em)
	return res, nil
}

// tableMAPE measures the predicted table's utility error against the truth
// over every configuration.
func tableMAPE(truth, predicted *opoint.Table) float64 {
	keyed := make(map[string]float64, len(predicted.Points))
	for _, op := range predicted.Points {
		keyed[op.Vector.Key()] = op.Utility
	}
	var want, got []float64
	for _, op := range truth.Points {
		p, ok := keyed[op.Vector.Key()]
		if !ok {
			continue
		}
		want = append(want, op.Utility)
		got = append(got, p)
	}
	return mathx.MAPE(want, got)
}

// tableIGD compares two tables' (utility, power) Pareto fronts.
func tableIGD(truth, predicted *opoint.Table) float64 {
	tu, tp := tableObjectives(truth)
	pu, pp := tableObjectives(predicted)
	refIdx := regress.ParetoIndices(tu, tp)
	prIdx := regress.ParetoIndices(pu, pp)
	// Evaluate the predicted front at the *true* characteristics of the
	// selected vectors — what matters is which configurations get picked.
	keyed := make(map[string]int, len(truth.Points))
	for i, op := range truth.Points {
		keyed[op.Vector.Key()] = i
	}
	var prTrueU, prTrueP []float64
	for _, i := range prIdx {
		if j, ok := keyed[predicted.Points[i].Vector.Key()]; ok {
			prTrueU = append(prTrueU, tu[j])
			prTrueP = append(prTrueP, tp[j])
		}
	}
	var refU, refP []float64
	for _, i := range refIdx {
		refU = append(refU, tu[i])
		refP = append(refP, tp[i])
	}
	return regress.IGD(refU, refP, prTrueU, prTrueP)
}

func tableObjectives(t *opoint.Table) (utility, power []float64) {
	utility = make([]float64, len(t.Points))
	power = make([]float64, len(t.Points))
	for i, op := range t.Points {
		utility[i] = op.Utility
		power[i] = op.Power
	}
	return utility, power
}

// Format writes the exploration ablation table.
func (r *ExploreAblationResult) Format(w io.Writer) {
	writeHeader(w, "Ablation: exploration heuristics vs in-order enumeration (lower is better)")
	fmt.Fprintf(w, "%-12s %8s %11s %11s %12s %12s\n",
		"app", "budget", "heur IGD", "enum IGD", "heur MAPE%", "enum MAPE%")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-12s %8d %11.4f %11.4f %12.1f %12.1f\n",
			row.App, row.Budget, row.HeuristicIGD, row.EnumerationIGD,
			row.HeuristicMAPE, row.EnumerationMAPE)
	}
	fmt.Fprintf(w, "mean IGD: heuristic %.4f vs enumeration %.4f; mean MAPE: %.1f%% vs %.1f%%\n",
		r.HeuristicMean, r.EnumerationMean, r.HeuristicMAPEMean, r.EnumerationMAPEMean)
}
