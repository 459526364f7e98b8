package experiments

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"github.com/harp-rm/harp/harpsim"
	"github.com/harp-rm/harp/internal/parallel"
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

	offline := harpsim.OfflineDSETablesParallel(plat, suite, cfg.Parallelism)

	type scMeta struct {
		sc    harpsim.Scenario
		multi bool
	}
	var metas []scMeta
	for _, name := range singles {
		sc, err := scenarioOf(plat, suite, name)
		if err != nil {
			return nil, err
		}
		metas = append(metas, scMeta{sc, false})
	}
	for _, names := range multis {
		sc, err := scenarioOf(plat, suite, names...)
		if err != nil {
			return nil, err
		}
		metas = append(metas, scMeta{sc, true})
	}

	// Fan scenario × policy units across the pool: every unit builds its own
	// machine from the scenario and the shared read-only tables, so results
	// are bit-identical at any parallelism level. The "harp" unit chains its
	// online-learning warm-up with the measured run (the learned tables are
	// unit-local state).
	const nPolicies = 5 // cfs, itd, harp (learn+run), harp-offline, harp-noscaling
	runs, err := parallel.Map(cfg.Parallelism, len(metas)*nPolicies, func(u int) (*harpsim.Result, error) {
		m := metas[u/nPolicies]
		base := harpsim.Options{Seed: cfg.Seed, Governor: sim.GovernorPowersave}
		switch u % nPolicies {
		case 0:
			return harpsim.Run(m.sc, withPolicy(base, harpsim.PolicyCFS))
		case 1:
			return harpsim.Run(m.sc, withPolicy(base, harpsim.PolicyITD))
		case 2:
			// HARP with stable operating points learned online (§6.3:
			// behaviour during learning is Fig. 8's subject).
			learned, err := harpsim.LearnTables(m.sc, cfg.LearnFor, 0, base)
			if err != nil {
				return nil, err
			}
			opts := withPolicy(base, harpsim.PolicyHARP)
			opts.OfflineTables = learned.Tables
			return harpsim.Run(m.sc, opts)
		case 3:
			opts := withPolicy(base, harpsim.PolicyHARPOffline)
			opts.OfflineTables = offline
			return harpsim.Run(m.sc, opts)
		default:
			opts := withPolicy(base, harpsim.PolicyHARPNoScaling)
			opts.OfflineTables = offline
			return harpsim.Run(m.sc, opts)
		}
	})
	if err != nil {
		return nil, err
	}

	res := &Fig6Result{
		GeoSingle: make(map[string]Factor),
		GeoMulti:  make(map[string]Factor),
	}
	for s, m := range metas {
		cfs := runs[s*nPolicies]
		res.Rows = append(res.Rows, Fig6Row{
			Scenario:       m.sc.Name,
			Multi:          m.multi,
			CFSMakespanSec: cfs.MakespanSec,
			Factors: map[string]Factor{
				"itd":            factorOf(cfs, runs[s*nPolicies+1]),
				"harp":           factorOf(cfs, runs[s*nPolicies+2]),
				"harp-offline":   factorOf(cfs, runs[s*nPolicies+3]),
				"harp-noscaling": factorOf(cfs, runs[s*nPolicies+4]),
			},
		})
	}

	for _, label := range Fig6Labels {
		var single, multi []Factor
		for _, row := range res.Rows {
			if f, ok := row.Factors[label]; ok {
				if row.Multi {
					multi = append(multi, f)
				} else {
					single = append(single, f)
				}
			}
		}
		res.GeoSingle[label] = geoMeanFactors(single)
		res.GeoMulti[label] = geoMeanFactors(multi)
	}
	return res, nil
}

func withPolicy(o harpsim.Options, p harpsim.Policy) harpsim.Options {
	o.Policy = p
	return o
}

// Format writes the Fig. 6 table.
func (r *Fig6Result) Format(w io.Writer) {
	writeHeader(w, "Figure 6: improvement factors over CFS — Intel Raptor Lake i9-13900K")
	fmt.Fprintf(w, "%-28s %9s  %s\n", "scenario", "CFS[s]", formatFactorHeader())
	rows := append([]Fig6Row(nil), r.Rows...)
	sort.SliceStable(rows, func(i, j int) bool {
		if rows[i].Multi != rows[j].Multi {
			return !rows[i].Multi
		}
		return false
	})
	lastMulti := false
	for _, row := range rows {
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
