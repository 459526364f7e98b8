package experiments

import (
	"fmt"
	"io"
	"strings"

	"github.com/harp-rm/harp/harpsim"
	"github.com/harp-rm/harp/internal/platform"
	"github.com/harp-rm/harp/internal/sim"
	"github.com/harp-rm/harp/internal/workload"
)

// Fig7Row is one Odroid scenario's improvement of HARP (Offline) over EAS.
type Fig7Row struct {
	Scenario    string
	Multi       bool
	EASMakespan float64
	EASEnergyJ  float64
	Factor      Factor
}

// Fig7Result reproduces Fig. 7: HARP (Offline) versus the Linux
// Energy-Aware Scheduler on the Odroid XU3-E. Online exploration is
// impossible there — the PMU cannot observe both islands at once (§6.4).
type Fig7Result struct {
	Rows      []Fig7Row
	GeoSingle Factor
	GeoMulti  Factor
}

// OdroidSingleScenarioNames lists the Fig. 7 single-application scenarios.
func OdroidSingleScenarioNames() []string {
	return []string{
		"bt.A", "cg.A", "ep.A", "ft.A", "is.A", "lu.A", "mg.A", "sp.A", "ua.A",
		"mandelbrot", "mandelbrot-static", "lms", "lms-static",
	}
}

// OdroidMultiScenarioNames lists the Fig. 7 multi-application scenarios.
func OdroidMultiScenarioNames() [][]string {
	return [][]string{
		{"is.A", "lu.A"},
		{"cg.A", "mg.A"},
		{"ep.A", "ft.A"},
		{"mandelbrot", "lms"},
		{"bt.A", "sp.A", "ua.A"},
		{"ep.A", "cg.A", "ft.A", "mg.A"},
	}
}

// Fig7 runs the Odroid evaluation.
func Fig7(cfg Config) (*Fig7Result, error) {
	cfg = cfg.withDefaults()
	plat := platform.OdroidXU3()
	suite := workload.OdroidApps()

	singles := OdroidSingleScenarioNames()
	multis := OdroidMultiScenarioNames()
	if cfg.Quick {
		singles = []string{"mg.A", "lu.A", "mandelbrot"}
		multis = [][]string{{"cg.A", "mg.A"}}
	}

	scs, err := scenarioSet(plat, suite, singles, multis)
	if err != nil {
		return nil, err
	}
	offline := harpsim.OfflineDSETablesParallel(plat, suite, cfg.Parallelism)
	base := harpsim.Options{Seed: cfg.Seed, Governor: sim.GovernorSchedutil}
	runs, err := runArms(cfg, scs, []arm{
		policyArm(base, harpsim.PolicyEAS, nil),
		policyArm(base, harpsim.PolicyHARPOffline, offline),
	})
	if err != nil {
		return nil, err
	}

	res := &Fig7Result{}
	fs := make([]Factor, len(scs))
	for s, sc := range scs {
		eas := runs[s][0]
		fs[s] = factorOf(eas, runs[s][1])
		res.Rows = append(res.Rows, Fig7Row{
			Scenario:    sc.Name,
			Multi:       s >= len(singles),
			EASMakespan: eas.MakespanSec,
			EASEnergyJ:  eas.EnergyJ,
			Factor:      fs[s],
		})
	}
	res.GeoSingle = geoMeanFactors(fs[:len(singles)])
	res.GeoMulti = geoMeanFactors(fs[len(singles):])
	return res, nil
}

// Format writes the Fig. 7 table.
func (r *Fig7Result) Format(w io.Writer) {
	writeHeader(w, "Figure 7: HARP (Offline) improvement over EAS — Odroid XU3-E")
	fmt.Fprintf(w, "%-26s %10s %12s %8s %8s\n", "scenario", "EAS[s]", "EAS[J]", "time", "energy")
	lastMulti := false
	for _, row := range r.Rows {
		if row.Multi && !lastMulti {
			fmt.Fprintln(w, strings.Repeat("-", 70))
			lastMulti = true
		}
		fmt.Fprintf(w, "%-26s %10.2f %12.1f %7.2fx %7.2fx\n",
			row.Scenario, row.EASMakespan, row.EASEnergyJ, row.Factor.Time, row.Factor.Energy)
	}
	fmt.Fprintln(w, strings.Repeat("=", 70))
	fmt.Fprintf(w, "%-50s %7.2fx %7.2fx\n", "geomean (single-application)", r.GeoSingle.Time, r.GeoSingle.Energy)
	fmt.Fprintf(w, "%-50s %7.2fx %7.2fx\n", "geomean (multi-application)", r.GeoMulti.Time, r.GeoMulti.Energy)
}
