package experiments

import (
	"fmt"
	"io"
	"time"

	"github.com/harp-rm/harp/harpsim"
	"github.com/harp-rm/harp/internal/mathx"
	"github.com/harp-rm/harp/internal/parallel"
	"github.com/harp-rm/harp/internal/platform"
	"github.com/harp-rm/harp/internal/workload"
)

// Fig8Point is one learning snapshot: the improvement factors HARP would
// achieve with the knowledge it had at that instant.
type Fig8Point struct {
	AtSec     float64
	AllStable bool
	Factor    Factor
}

// Fig8Scenario is the learning trajectory of one scenario.
type Fig8Scenario struct {
	Scenario       string
	Multi          bool
	StableAfterSec float64
	Points         []Fig8Point
}

// Fig8Result reproduces Fig. 8: HARP's behaviour during the learning phase.
// The paper snapshots the operating-point tables every 5 s and reports when
// scenarios reach the stable stage (single ≈ 29.8 ± 5.9 s, multi ≈
// 36.6 ± 8.0 s).
type Fig8Result struct {
	Scenarios []Fig8Scenario
	// Stable-onset statistics across scenarios.
	SingleStableMean, SingleStableStd float64
	MultiStableMean, MultiStableStd   float64
}

// Fig8SingleNames are the single-application learning scenarios.
func Fig8SingleNames() []string {
	return []string{"ep.C", "ft.C", "mg.C", "lu.C", "cg.C", "binpack", "seismic", "vgg"}
}

// Fig8MultiNames are the multi-application learning scenarios.
func Fig8MultiNames() [][]string {
	return [][]string{
		{"is.C", "lu.C"},
		{"cg.C", "mg.C"},
		{"ft.C", "mg.C", "cg.C"},
		{"bt.C", "cg.C", "ft.C", "is.C"},
		{"ep.C", "cg.C", "ft.C", "mg.C", "sp.C"},
	}
}

// Fig8 runs the learning-phase experiment.
func Fig8(cfg Config) (*Fig8Result, error) {
	cfg = cfg.withDefaults()
	plat := platform.RaptorLake()
	suite := workload.IntelApps()

	singles := Fig8SingleNames()
	multis := Fig8MultiNames()
	if cfg.Quick {
		singles = []string{"ft.C", "mg.C"}
		multis = [][]string{{"cg.C", "mg.C"}}
	}

	scs, err := scenarioSet(plat, suite, singles, multis)
	if err != nil {
		return nil, err
	}
	base := harpsim.Options{Seed: cfg.Seed}

	// Phase 1 — per scenario: the CFS baseline and the learning run with 5 s
	// snapshots (the snapshots feed phase 2).
	type prep struct {
		cfs *harpsim.Result
		lr  *harpsim.LearnResult
	}
	cfs := policyArm(base, harpsim.PolicyCFS, nil)
	preps, err := parallel.Map(cfg.Parallelism, len(scs), func(s int) (prep, error) {
		res, err := cfs.run(scs[s])
		if err != nil {
			return prep{}, err
		}
		lr, err := harpsim.LearnTables(scs[s], cfg.LearnFor, 5*time.Second, base)
		if err != nil {
			return prep{}, err
		}
		return prep{res, lr}, nil
	})
	if err != nil {
		return nil, err
	}

	// Phase 2 — replay every (scenario, snapshot) with the knowledge HARP had
	// at that instant. The units are flattened across scenarios for load
	// balance; factors are assembled back in snapshot order below.
	type replayKey struct{ s, snap int }
	var keys []replayKey
	for s, p := range preps {
		for i := range p.lr.Snapshots {
			keys = append(keys, replayKey{s, i})
		}
	}
	replays, err := parallel.Map(cfg.Parallelism, len(keys), func(u int) (*harpsim.Result, error) {
		k := keys[u]
		tables := preps[k.s].lr.Snapshots[k.snap].Tables
		return policyArm(base, harpsim.PolicyHARPOffline, tables).run(scs[k.s])
	})
	if err != nil {
		return nil, err
	}

	res := &Fig8Result{}
	rows := make([]Fig8Scenario, len(scs))
	for s, sc := range scs {
		rows[s] = Fig8Scenario{
			Scenario:       sc.Name,
			Multi:          s >= len(singles),
			StableAfterSec: preps[s].lr.StableAfterSec,
		}
	}
	for u, k := range keys {
		snap := preps[k.s].lr.Snapshots[k.snap]
		rows[k.s].Points = append(rows[k.s].Points, Fig8Point{
			AtSec:     snap.AtSec,
			AllStable: snap.AllStable,
			Factor:    factorOf(preps[k.s].cfs, replays[u]),
		})
	}
	res.Scenarios = rows

	var single, multi []float64
	for _, s := range res.Scenarios {
		if s.StableAfterSec < 0 {
			continue
		}
		if s.Multi {
			multi = append(multi, s.StableAfterSec)
		} else {
			single = append(single, s.StableAfterSec)
		}
	}
	res.SingleStableMean, res.SingleStableStd = mathx.Mean(single), mathx.StdDev(single)
	res.MultiStableMean, res.MultiStableStd = mathx.Mean(multi), mathx.StdDev(multi)
	return res, nil
}

// Format writes the Fig. 8 summary.
func (r *Fig8Result) Format(w io.Writer) {
	writeHeader(w, "Figure 8: HARP improvement over CFS during the learning phase — Intel Raptor Lake")
	for _, s := range r.Scenarios {
		fmt.Fprintf(w, "\n%s (stable after %.1fs)\n", s.Scenario, s.StableAfterSec)
		fmt.Fprintf(w, "%8s %10s %8s %8s\n", "t[s]", "stage", "time", "energy")
		for _, p := range s.Points {
			stage := "learning"
			if p.AllStable {
				stage = "stable"
			}
			fmt.Fprintf(w, "%8.0f %10s %7.2fx %7.2fx\n", p.AtSec, stage, p.Factor.Time, p.Factor.Energy)
		}
	}
	fmt.Fprintf(w, "\nstable-stage onset: single %.1f ± %.1f s (paper: 29.8 ± 5.9), multi %.1f ± %.1f s (paper: 36.6 ± 8.0)\n",
		r.SingleStableMean, r.SingleStableStd, r.MultiStableMean, r.MultiStableStd)
}
