// Package experiments regenerates every table and figure of the paper's
// evaluation (§6) on the simulated platforms. Each experiment returns typed
// rows plus formatted text output; bench_test.go at the repository root
// exposes one benchmark per experiment, and DESIGN.md §7 records the
// paper-versus-measured comparison.
package experiments

import (
	"fmt"
	"io"
	"strings"
	"time"

	"github.com/harp-rm/harp/harpsim"
	"github.com/harp-rm/harp/internal/mathx"
	"github.com/harp-rm/harp/internal/opoint"
	"github.com/harp-rm/harp/internal/parallel"
	"github.com/harp-rm/harp/internal/platform"
	"github.com/harp-rm/harp/internal/workload"
)

// Config tunes experiment scale.
type Config struct {
	// Seed drives all measurement noise.
	Seed int64
	// LearnFor is the online-learning warm-up horizon; zero selects 90
	// virtual seconds.
	LearnFor time.Duration
	// Quick trims scenario lists and seed counts for fast runs (used by
	// -short test runs); the full configuration reproduces the paper scale.
	Quick bool
	// Parallelism bounds the worker pool every driver fans its independent
	// scenario × policy × seed units out across: 0 selects one worker per
	// CPU, 1 forces a strictly sequential run. Each unit owns its own
	// simulated machine and RNG seeds and results are merged in submission
	// order, so the reported metrics are bit-identical at any setting.
	Parallelism int
}

func (c Config) withDefaults() Config {
	if c.LearnFor == 0 {
		c.LearnFor = 90 * time.Second
	}
	return c
}

// Factor is an improvement factor over a baseline: >1 is better (faster /
// less energy), exactly as the paper reports.
type Factor struct {
	Time   float64
	Energy float64
}

// factorOf computes baseline/result improvement factors.
func factorOf(baseline, result *harpsim.Result) Factor {
	return Factor{
		Time:   baseline.MakespanSec / result.MakespanSec,
		Energy: baseline.EnergyJ / result.EnergyJ,
	}
}

// geoMeanFactors aggregates factors geometrically (matching the paper's
// geomean rows).
func geoMeanFactors(fs []Factor) Factor {
	times := make([]float64, len(fs))
	energies := make([]float64, len(fs))
	for i, f := range fs {
		times[i] = f.Time
		energies[i] = f.Energy
	}
	return Factor{Time: mathx.GeoMean(times), Energy: mathx.GeoMean(energies)}
}

// scenarioSet builds the single-application scenarios, then the mixes, from
// profile names within a suite: row s is multi-application exactly when
// s >= len(singles).
func scenarioSet(plat *platform.Platform, suite []*workload.Profile, singles []string, multis [][]string) ([]harpsim.Scenario, error) {
	lists := make([][]string, 0, len(singles)+len(multis))
	for _, name := range singles {
		lists = append(lists, []string{name})
	}
	lists = append(lists, multis...)
	scs := make([]harpsim.Scenario, len(lists))
	for i, names := range lists {
		scs[i] = harpsim.Scenario{Name: strings.Join(names, "+"), Platform: plat}
		for _, n := range names {
			p, err := workload.ByName(suite, n)
			if err != nil {
				return nil, err
			}
			scs[i].Apps = append(scs[i].Apps, p)
		}
	}
	return scs, nil
}

// arm is one configuration every scenario of a set runs under: a policy
// with its tables, or, when learnFor is set, HARP on the operating points it
// first learns online for that long (§6.3: behaviour during learning is
// Fig. 8's subject). The learned tables are the unit's own state.
type arm struct {
	opts     harpsim.Options
	learnFor time.Duration
}

// policyArm runs the scenario under policy p with the given offline tables.
func policyArm(base harpsim.Options, p harpsim.Policy, tables map[string]*opoint.Table) arm {
	base.Policy, base.OfflineTables = p, tables
	return arm{opts: base}
}

// learnedArm chains HARP's online-learning warm-up with the measured run.
func learnedArm(base harpsim.Options, learnFor time.Duration) arm {
	base.Policy = harpsim.PolicyHARP
	return arm{opts: base, learnFor: learnFor}
}

func (a arm) run(sc harpsim.Scenario) (*harpsim.Result, error) {
	opts := a.opts
	if a.learnFor > 0 {
		learned, err := harpsim.LearnTables(sc, a.learnFor, 0, opts)
		if err != nil {
			return nil, err
		}
		opts.OfflineTables = learned.Tables
	}
	return harpsim.Run(sc, opts)
}

// runArms fans every scenario × arm unit across the worker pool and returns
// runs[s][a]. Each unit builds its own machine from the scenario and the
// shared read-only tables, and results merge in submission order, so the
// matrix is bit-identical at any parallelism.
func runArms(cfg Config, scs []harpsim.Scenario, arms []arm) ([][]*harpsim.Result, error) {
	flat, err := parallel.Map(cfg.Parallelism, len(scs)*len(arms), func(u int) (*harpsim.Result, error) {
		return arms[u%len(arms)].run(scs[u/len(arms)])
	})
	if err != nil {
		return nil, err
	}
	runs := make([][]*harpsim.Result, len(scs))
	for s := range runs {
		runs[s] = flat[s*len(arms) : (s+1)*len(arms)]
	}
	return runs, nil
}

// writeHeader prints a section header.
func writeHeader(w io.Writer, title string) {
	fmt.Fprintf(w, "\n=== %s ===\n", title)
}
