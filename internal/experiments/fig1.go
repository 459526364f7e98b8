package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"sort"

	"github.com/harp-rm/harp/internal/opoint"
	"github.com/harp-rm/harp/internal/parallel"
	"github.com/harp-rm/harp/internal/platform"
	"github.com/harp-rm/harp/internal/workload"
)

// Fig1Point is one configuration of the Fig. 1 sweep: an application run on
// a specific thread distribution across E-cores and P-hyperthreads.
type Fig1Point struct {
	// Vector is the extended resource vector.
	Vector platform.ResourceVector
	// PHyperthreads and ECores are Fig. 1's axes.
	PHyperthreads int
	ECores        int
	// TimeSec and EnergyJ are the execution characteristics (dot size and
	// colour in the paper's plot).
	TimeSec float64
	EnergyJ float64
	// Pareto marks the 4-objective Pareto-optimal configurations (green
	// rings): execution time, energy, P-cores, E-cores, all minimised.
	Pareto bool
}

// Fig1App is the sweep of one application.
type Fig1App struct {
	App    string
	Points []Fig1Point
}

// Fig1Result reproduces Fig. 1: performance and energy of ep.C and mg.C on
// the Intel Raptor Lake across the full coarse configuration space.
type Fig1Result struct {
	Apps []Fig1App
}

// Fig1 runs the configuration sweep. Like the paper's measured data, each
// configuration carries a little run-to-run noise; on the smooth analytic
// surfaces this is what keeps the 4-objective front selective.
func Fig1(cfg Config) (*Fig1Result, error) {
	cfg = cfg.withDefaults()
	plat := platform.RaptorLake()
	suite := workload.IntelApps()
	names := []string{"ep.C", "mg.C"}
	noise := rand.New(rand.NewSource(cfg.Seed + 1))

	// Fig. 1's axes are thread distributions: #E-cores (x) versus
	// #P-hyperthreads (y). For a given P-hyperthread count, threads pack
	// onto ⌈pht/2⌉ P-cores (pairs first, plus one single-thread core for
	// odd counts).
	//
	// The run-to-run noise comes from one shared RNG stream, so the draws are
	// made sequentially in sweep order here; only the (deterministic) model
	// evaluations fan out across the pool.
	type unit struct {
		prof   *workload.Profile
		pht, e int
		tNoise float64
		eNoise float64
	}
	var units []unit
	for _, name := range names {
		prof, err := workload.ByName(suite, name)
		if err != nil {
			return nil, err
		}
		for pht := 0; pht <= 16; pht++ {
			for e := 0; e <= 16; e++ {
				if pht == 0 && e == 0 {
					continue
				}
				units = append(units, unit{
					prof: prof, pht: pht, e: e,
					tNoise: 1 + 0.015*noise.NormFloat64(),
					eNoise: 1 + 0.015*noise.NormFloat64(),
				})
			}
		}
	}

	points, err := parallel.Map(cfg.Parallelism, len(units), func(i int) (Fig1Point, error) {
		u := units[i]
		rv, err := platform.VectorOf(plat, []int{u.pht % 2, u.pht / 2}, []int{u.e})
		if err != nil {
			return Fig1Point{}, err
		}
		ev := workload.EvaluateVector(plat, u.prof, rv)
		return Fig1Point{
			Vector:        rv,
			PHyperthreads: u.pht,
			ECores:        u.e,
			TimeSec:       ev.TimeSec * u.tNoise,
			EnergyJ:       ev.EnergyJ * u.eNoise,
		}, nil
	})
	if err != nil {
		return nil, err
	}

	res := &Fig1Result{}
	perApp := len(units) / len(names)
	for a, name := range names {
		app := Fig1App{App: name, Points: points[a*perApp : (a+1)*perApp]}
		markFig1Pareto(app.Points)
		res.Apps = append(res.Apps, app)
	}
	return res, nil
}

// markFig1Pareto flags the 4-objective Pareto set.
func markFig1Pareto(points []Fig1Point) {
	idx := make([]int, len(points))
	for i := range idx {
		idx[i] = i
	}
	front := opoint.Pareto(idx, func(dst []float64, i int) []float64 {
		p := points[i]
		return append(dst,
			p.TimeSec,
			p.EnergyJ,
			float64(p.Vector.Cores(0)),
			float64(p.Vector.Cores(1)),
		)
	})
	for _, i := range front {
		points[i].Pareto = true
	}
}

// ParetoPoints returns an app's Pareto configurations sorted by time.
func (a Fig1App) ParetoPoints() []Fig1Point {
	var out []Fig1Point
	for _, p := range a.Points {
		if p.Pareto {
			out = append(out, p)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].TimeSec < out[j].TimeSec })
	return out
}

// Format writes the Fig. 1 summary: the Pareto fronts plus the qualitative
// observations the paper draws from the plot.
func (r *Fig1Result) Format(w io.Writer) {
	writeHeader(w, "Figure 1: configuration sweep of ep.C and mg.C — Intel Raptor Lake")
	const maxRows = 25
	for _, app := range r.Apps {
		front := app.ParetoPoints()
		fmt.Fprintf(w, "\n%s: %d configurations, %d Pareto-optimal (showing up to %d by time)\n",
			app.App, len(app.Points), len(front), maxRows)
		fmt.Fprintf(w, "%-12s %6s %8s %10s %10s\n", "vector", "P-HT", "E-cores", "time[s]", "energy[J]")
		for i, p := range front {
			if i >= maxRows {
				fmt.Fprintf(w, "… %d more\n", len(front)-maxRows)
				break
			}
			fmt.Fprintf(w, "%-12s %6d %8d %10.2f %10.1f\n",
				p.Vector.Key(), p.PHyperthreads, p.ECores, p.TimeSec, p.EnergyJ)
		}
	}
	fmt.Fprintln(w, "\nObservations to check against the paper:")
	for _, app := range r.Apps {
		front := app.ParetoPoints()
		evenP, mixed, eOnly := 0, 0, 0
		for _, p := range front {
			if p.PHyperthreads > 0 && p.PHyperthreads%2 == 0 {
				evenP++
			}
			if p.PHyperthreads > 0 && p.ECores > 0 {
				mixed++
			}
			if p.PHyperthreads == 0 {
				eOnly++
			}
		}
		fmt.Fprintf(w, "  %s: %d/%d front points use an even P-HT count, %d mix P+E, %d are E-only\n",
			app.App, evenP, len(front), mixed, eOnly)
	}
}
