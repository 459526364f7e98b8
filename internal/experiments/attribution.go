package experiments

import (
	"fmt"
	"io"
	"math"
	"sort"

	"github.com/harp-rm/harp/harpsim"
	"github.com/harp-rm/harp/internal/mathx"
	"github.com/harp-rm/harp/internal/platform"
	"github.com/harp-rm/harp/internal/workload"
)

// AttributionRow is one application's attributed-versus-true dynamic energy
// within a multi-application scenario.
type AttributionRow struct {
	Scenario    string
	App         string
	TrueJ       float64
	AttributedJ float64
	ErrPercent  float64
}

// AttributionResult reproduces the §5.1 validation of the EnergAt-style
// attribution with per-kind power coefficients (Eq. 3). The paper reports an
// overall MAPE of 8.76 % against isolated executions; here the simulator
// provides the exact per-process dynamic energy as ground truth.
type AttributionResult struct {
	Rows []AttributionRow
	MAPE float64
}

// Attribution runs multi-application scenarios under HARP (Offline) and
// compares the monitor's per-application energy attribution against the
// simulator's ground truth.
func Attribution(cfg Config) (*AttributionResult, error) {
	cfg = cfg.withDefaults()
	plat := platform.RaptorLake()
	suite := workload.IntelApps()

	multis := [][]string{
		{"cg.C", "mg.C"},
		{"ep.C", "ft.C"},
		{"ft.C", "mg.C", "cg.C"},
		{"bt.C", "cg.C", "ft.C", "is.C"},
	}
	if cfg.Quick {
		multis = multis[:2]
	}
	scs, err := scenarioSet(plat, suite, nil, multis)
	if err != nil {
		return nil, err
	}
	offline := harpsim.OfflineDSETablesParallel(plat, suite, cfg.Parallelism)
	runs, err := runArms(cfg, scs, []arm{
		policyArm(harpsim.Options{Seed: cfg.Seed}, harpsim.PolicyHARPOffline, offline),
	})
	if err != nil {
		return nil, err
	}

	res := &AttributionResult{}
	var truths, attrs []float64
	for i, r := range runs {
		run := r[0]
		// Iterate the per-app results in sorted order: the Apps map has no
		// deterministic range order, and the MAPE sums in row order.
		apps := make([]string, 0, len(run.Apps))
		for app := range run.Apps {
			apps = append(apps, app)
		}
		sort.Strings(apps)
		for _, app := range apps {
			ar := run.Apps[app]
			if ar.DynEnergyJ <= 0 || ar.AttributedEnergyJ <= 0 {
				continue
			}
			truths = append(truths, ar.DynEnergyJ)
			attrs = append(attrs, ar.AttributedEnergyJ)
			res.Rows = append(res.Rows, AttributionRow{
				Scenario:    scs[i].Name,
				App:         app,
				TrueJ:       ar.DynEnergyJ,
				AttributedJ: ar.AttributedEnergyJ,
				ErrPercent:  100 * math.Abs(ar.AttributedEnergyJ-ar.DynEnergyJ) / ar.DynEnergyJ,
			})
		}
	}
	res.MAPE = mathx.MAPE(truths, attrs)
	return res, nil
}

// Format writes the attribution validation table.
func (r *AttributionResult) Format(w io.Writer) {
	writeHeader(w, "§5.1: per-application energy attribution validation")
	fmt.Fprintf(w, "%-26s %-10s %12s %12s %8s\n", "scenario", "app", "true[J]", "attr[J]", "err")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-26s %-10s %12.1f %12.1f %7.1f%%\n",
			row.Scenario, row.App, row.TrueJ, row.AttributedJ, row.ErrPercent)
	}
	fmt.Fprintf(w, "\noverall MAPE: %.2f%% (paper: 8.76%%)\n", r.MAPE)
}
