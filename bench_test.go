// Package bench regenerates every table and figure of the paper's
// evaluation as Go benchmarks — one benchmark per artefact (see DESIGN.md
// §3 for the experiment index and §7 for paper-vs-measured).
//
// By default the benchmarks run the trimmed "quick" configuration so the
// whole suite finishes in a few minutes; set HARP_FULL_EXPERIMENTS=1 to run
// the full paper-scale scenario lists (the full Fig. 6 alone takes several
// minutes of wall time). Headline values are exported as benchmark metrics;
// run with -v to also print the formatted tables.
//
// The experiment drivers fan their scenario × policy × seed units out across
// a bounded worker pool; HARP_EXPERIMENT_PARALLELISM bounds it (0 or unset =
// one worker per CPU, 1 = sequential). Results are bit-identical at any
// setting — see BenchmarkFigure6Sequential/Parallel for the wall-clock
// comparison.
package bench

import (
	"io"
	"os"
	"strconv"
	"testing"

	"github.com/harp-rm/harp/internal/experiments"
)

// benchConfig selects quick or full experiment scale and reads the
// parallelism bound from HARP_EXPERIMENT_PARALLELISM.
func benchConfig() experiments.Config {
	parallelism := 0
	if v := os.Getenv("HARP_EXPERIMENT_PARALLELISM"); v != "" {
		if n, err := strconv.Atoi(v); err == nil {
			parallelism = n
		}
	}
	return experiments.Config{
		Seed:        1,
		Quick:       os.Getenv("HARP_FULL_EXPERIMENTS") == "",
		Parallelism: parallelism,
	}
}

// sink formats results when -v is set.
func sink(b *testing.B, r interface{ Format(io.Writer) }) {
	b.Helper()
	if testing.Verbose() {
		r.Format(os.Stdout)
	}
}

// BenchmarkFigure1ConfigurationSweep regenerates Fig. 1: the full
// configuration sweep of ep.C and mg.C on the Raptor Lake with 4-objective
// Pareto marking.
func BenchmarkFigure1ConfigurationSweep(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig1(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, app := range res.Apps {
				b.ReportMetric(float64(len(app.ParetoPoints())), "pareto-"+app.App)
			}
			sink(b, res)
		}
	}
}

// BenchmarkFigure5RegressionModels regenerates Fig. 5: the regression-model
// comparison (MAPE, IGD, common Pareto ratio across training sizes).
func BenchmarkFigure5RegressionModels(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig5(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			if cell, ok := res.Cell("poly2", res.TrainSizes[len(res.TrainSizes)-1]); ok {
				b.ReportMetric(cell.MAPEIPS, "poly2-mape-ips-%")
				b.ReportMetric(cell.IGD, "poly2-igd")
			}
			sink(b, res)
		}
	}
}

// BenchmarkFigure6IntelRaptorLake regenerates Fig. 6: improvement factors of
// HARP, HARP (Offline), HARP (No Scaling) and ITD over CFS for single- and
// multi-application scenarios on the Intel machine.
func BenchmarkFigure6IntelRaptorLake(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig6(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(res.GeoSingle["harp"].Energy, "harp-single-energy-x")
			b.ReportMetric(res.GeoMulti["harp"].Time, "harp-multi-time-x")
			b.ReportMetric(res.GeoMulti["harp"].Energy, "harp-multi-energy-x")
			b.ReportMetric(res.GeoMulti["harp-offline"].Time, "offline-multi-time-x")
			sink(b, res)
		}
	}
}

// BenchmarkFigure6Sequential runs Fig. 6 with the worker pool forced to a
// single inline worker — the baseline for the parallel speedup comparison.
func BenchmarkFigure6Sequential(b *testing.B) {
	cfg := benchConfig()
	cfg.Parallelism = 1
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig6(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure6Parallel runs Fig. 6 with one worker per CPU. The reported
// metrics are bit-identical to BenchmarkFigure6Sequential (the determinism
// test in internal/experiments asserts this); only the wall time differs.
func BenchmarkFigure6Parallel(b *testing.B) {
	cfg := benchConfig()
	cfg.Parallelism = 0
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig6(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure7OdroidXU3E regenerates Fig. 7: HARP (Offline) versus EAS
// on the Odroid XU3-E.
func BenchmarkFigure7OdroidXU3E(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig7(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(res.GeoSingle.Energy, "single-energy-x")
			b.ReportMetric(res.GeoMulti.Time, "multi-time-x")
			b.ReportMetric(res.GeoMulti.Energy, "multi-energy-x")
			sink(b, res)
		}
	}
}

// BenchmarkFigure8LearningOperatingPoints regenerates Fig. 8: HARP's
// behaviour during the learning phase, with 5 s table snapshots and the
// stable-stage onset statistics.
func BenchmarkFigure8LearningOperatingPoints(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig8(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(res.SingleStableMean, "single-stable-s")
			b.ReportMetric(res.MultiStableMean, "multi-stable-s")
			sink(b, res)
		}
	}
}

// BenchmarkGovernorAblation regenerates §6.3.3: the impact of the Linux
// frequency governor on HARP's improvements.
func BenchmarkGovernorAblation(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Governor(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(res.Factors["harp"]["performance"].Energy, "harp-perf-energy-x")
			b.ReportMetric(res.Factors["harp"]["powersave"].Energy, "harp-save-energy-x")
			sink(b, res)
		}
	}
}

// BenchmarkEnergyAttributionValidation regenerates the §5.1 validation of
// the EnergAt-style attribution with per-kind power coefficients (Eq. 3).
func BenchmarkEnergyAttributionValidation(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Attribution(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(res.MAPE, "mape-%")
			sink(b, res)
		}
	}
}

// BenchmarkHARPOverhead regenerates §6.6: HARP's management overhead with
// adaptation dropped in libharp.
func BenchmarkHARPOverhead(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Overhead(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(res.SingleMean, "single-overhead-%")
			b.ReportMetric(res.MultiMean, "multi-overhead-%")
			sink(b, res)
		}
	}
}

// BenchmarkAllocatorAblation compares the Lagrangian MMKP solver against the
// greedy baseline (DESIGN.md §4, decision 2).
func BenchmarkAllocatorAblation(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		res, err := experiments.AllocAblation(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 && len(res.Rows) > 0 {
			last := res.Rows[len(res.Rows)-1]
			b.ReportMetric(last.LagrangianCost, "lagr-cost")
			b.ReportMetric(last.GreedyCost, "greedy-cost")
			sink(b, res)
		}
	}
}

// BenchmarkExplorationAblation compares HARP's exploration heuristics
// against naive in-order measurement (DESIGN.md §4, decision 4).
func BenchmarkExplorationAblation(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		res, err := experiments.ExploreAblation(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(res.HeuristicMean, "heuristic-igd")
			b.ReportMetric(res.EnumerationMean, "enumeration-igd")
			sink(b, res)
		}
	}
}
