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

// Fig6Labels are the resource managers compared against CFS in Fig. 6.
var Fig6Labels = []string{"itd", "harp", "harp-offline", "harp-noscaling"}

// Fig6Row is one scenario's improvement factors over CFS.
type Fig6Row struct {
	Scenario       string
	Multi          bool
	CFSMakespanSec float64
	Factors        map[string]Factor
}

// Fig6Result reproduces Fig. 6: relative improvement of HARP and ITD over
// CFS on the Intel Raptor Lake, single- and multi-application scenarios.
type Fig6Result struct {
	Rows []Fig6Row
	// GeoSingle and GeoMulti are the per-label geometric means, matching
	// the paper's summary columns.
	GeoSingle map[string]Factor
	GeoMulti  map[string]Factor
}

// IntelSingleScenarioNames lists the Fig. 6 single-application scenarios.
func IntelSingleScenarioNames() []string {
	return []string{
		"bt.C", "cg.C", "ep.C", "ft.C", "is.C", "lu.C", "mg.C", "sp.C", "ua.C",
		"binpack", "fractal", "parallel-preorder", "pi", "primes", "seismic",
		"vgg", "alexnet",
	}
}

// IntelMultiScenarioNames lists the Fig. 6 multi-application scenarios.
func IntelMultiScenarioNames() [][]string {
	return [][]string{
		{"is.C", "lu.C"},
		{"cg.C", "mg.C"},
		{"ep.C", "ft.C"},
		{"bt.C", "sp.C"},
		{"binpack", "pi"},
		{"vgg", "alexnet"},
		{"ft.C", "mg.C", "cg.C"},
		{"ep.C", "lu.C", "ua.C"},
		{"bt.C", "cg.C", "ft.C", "is.C"},
		{"ep.C", "cg.C", "ft.C", "mg.C", "sp.C"},
	}
}

// Fig6 runs the Intel evaluation.
func Fig6(cfg Config) (*Fig6Result, error) {
	cfg = cfg.withDefaults()
	plat := platform.RaptorLake()
	suite := workload.IntelApps()

	singles := IntelSingleScenarioNames()
	multis := IntelMultiScenarioNames()
	if cfg.Quick {
		singles = []string{"ep.C", "mg.C", "binpack", "ft.C"}
		multis = [][]string{{"cg.C", "mg.C"}, {"ft.C", "mg.C", "cg.C"}}
	}

	scs, err := scenarioSet(plat, suite, singles, multis)
	if err != nil {
		return nil, err
	}
	offline := harpsim.OfflineDSETablesParallel(plat, suite, cfg.Parallelism)
	base := harpsim.Options{Seed: cfg.Seed, Governor: sim.GovernorPowersave}
	// CFS, then one arm per Fig6Labels entry, in that order.
	runs, err := runArms(cfg, scs, []arm{
		policyArm(base, harpsim.PolicyCFS, nil),
		policyArm(base, harpsim.PolicyITD, nil),
		learnedArm(base, cfg.LearnFor),
		policyArm(base, harpsim.PolicyHARPOffline, offline),
		policyArm(base, harpsim.PolicyHARPNoScaling, offline),
	})
	if err != nil {
		return nil, err
	}

	res := &Fig6Result{
		GeoSingle: make(map[string]Factor),
		GeoMulti:  make(map[string]Factor),
	}
	for s, sc := range scs {
		row := Fig6Row{
			Scenario:       sc.Name,
			Multi:          s >= len(singles),
			CFSMakespanSec: runs[s][0].MakespanSec,
			Factors:        make(map[string]Factor, len(Fig6Labels)),
		}
		for l, label := range Fig6Labels {
			row.Factors[label] = factorOf(runs[s][0], runs[s][l+1])
		}
		res.Rows = append(res.Rows, row)
	}
	for _, label := range Fig6Labels {
		fs := make([]Factor, len(res.Rows))
		for s, row := range res.Rows {
			fs[s] = row.Factors[label]
		}
		res.GeoSingle[label] = geoMeanFactors(fs[:len(singles)])
		res.GeoMulti[label] = geoMeanFactors(fs[len(singles):])
	}
	return res, nil
}

// Format writes the Fig. 6 table.
func (r *Fig6Result) Format(w io.Writer) {
	writeHeader(w, "Figure 6: improvement factors over CFS — Intel Raptor Lake i9-13900K")
	fmt.Fprintf(w, "%-28s %9s  %s\n", "scenario", "CFS[s]", formatFactorHeader())
	lastMulti := false
	for _, row := range r.Rows {
		if row.Multi && !lastMulti {
			fmt.Fprintln(w, strings.Repeat("-", 100))
			lastMulti = true
		}
		fmt.Fprintf(w, "%-28s %9.2f  %s\n", row.Scenario, row.CFSMakespanSec, formatFactors(row.Factors))
	}
	fmt.Fprintln(w, strings.Repeat("=", 100))
	fmt.Fprintf(w, "%-38s  %s\n", "geomean (single-application)", formatFactors(r.GeoSingle))
	fmt.Fprintf(w, "%-38s  %s\n", "geomean (multi-application)", formatFactors(r.GeoMulti))
}

func formatFactorHeader() string {
	var b strings.Builder
	for _, label := range Fig6Labels {
		fmt.Fprintf(&b, "%-15s t/e     ", label)
	}
	return b.String()
}

func formatFactors(fs map[string]Factor) string {
	var b strings.Builder
	for _, label := range Fig6Labels {
		f, ok := fs[label]
		if !ok {
			fmt.Fprintf(&b, "%-23s", "-")
			continue
		}
		fmt.Fprintf(&b, "%5.2fx /%5.2fx          ", f.Time, f.Energy)
	}
	return b.String()
}
