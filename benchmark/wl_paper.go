package main

import (
	"fmt"
	"strings"

	"github.com/harp-rm/harp/harpsim"
	"github.com/harp-rm/harp/internal/alloc"
	"github.com/harp-rm/harp/internal/check"
	"github.com/harp-rm/harp/internal/experiments"
	"github.com/harp-rm/harp/internal/faultsim"
	"github.com/harp-rm/harp/internal/platform"
	"github.com/harp-rm/harp/internal/sim"
	"github.com/harp-rm/harp/internal/telemetry"
	"github.com/harp-rm/harp/internal/workload"
)

// paperEval is the paper's own evaluation as a workload: the ten Fig. 6
// multi-application scenarios simulated under HARP with online exploration,
// warm starts on and the default solution cache. One operation is one pass
// over the ten scenarios. The matching CFS runs happen in set-up and give
// energy_x its denominator.
//
// The simulated measurement noise of pass k is seeded with paperSeeds[k], not
// from -seed, and the pass count is fixed by the run length instead of by the
// clock. Both follow from one measured fact: the simulator's host cost is
// heavy-tailed in that seed — one seed in four makes a three- or
// four-application scenario 10–40× more expensive (ep.C+lu.C+ua.C: 0.1 s at
// most seeds, 12 s and 5.8 GB at seed 7; bt.C+cg.C+ft.C+is.C: 7 s at seed 5)
// — so a run whose seed chose the noise, or whose speed chose how many passes
// fit, would report a different median for the same code. The scenarios are
// the paper's; there is no other input for -seed to vary.
type paperEval struct {
	env       runEnv
	plat      *platform.Platform
	scenarios []harpsim.Scenario

	cfsJ, cfsMakespan     float64 // Σ over the ten scenarios
	harpJ, harpMakespan   float64 // Σ over every measured pass
	exploreSteps, stableS float64
	passes                int

	metrics *telemetry.Metrics // traced run only
}

// paperSeeds are the simulator noise seeds of the passes, in order: the
// seeds from 1 up whose ten scenarios all cost their typical 0.03–1.6 s on
// the host (5 and 7 are left out, see above).
var paperSeeds = []int64{1, 2, 3, 4, 6, 8}

// paperPassSeconds sizes the fixed pass count: a pass takes 2 s on the
// builder's sandbox when it is quiet and about this long under its usual
// interference.
const paperPassSeconds = 4

// fixedOps is the pass count of a run of the given length.
func (w *paperEval) fixedOps(seconds float64) int {
	n := int(seconds / paperPassSeconds)
	if n < 1 {
		n = 1
	}
	if n > len(paperSeeds) {
		n = len(paperSeeds)
	}
	return n
}

func newPaperEval(env runEnv) driver {
	return &paperEval{env: env, plat: platform.RaptorLake()}
}

func (w *paperEval) sut() sut              { return selfSUT{} }
func (w *paperEval) cpuWholeSegment() bool { return false }
func (w *paperEval) teardown()             {}

func (w *paperEval) setup(m *meter) error {
	if err := m.time("setup.scenarios", func() error {
		suite := workload.IntelApps()
		names := experiments.IntelMultiScenarioNames()
		if w.env.small {
			names = names[1:3] // the two shortest pairs
		}
		for _, apps := range names {
			sc := harpsim.Scenario{Name: strings.Join(apps, "+"), Platform: w.plat}
			for _, n := range apps {
				prof, err := workload.ByName(suite, n)
				if err != nil {
					return err
				}
				sc.Apps = append(sc.Apps, prof)
			}
			w.scenarios = append(w.scenarios, sc)
		}
		return nil
	}); err != nil {
		return err
	}
	// CFS has no monitor, so its runs do not depend on the noise seed: one
	// pass serves as the baseline of every measured pass.
	for _, sc := range w.scenarios {
		if err := m.time("setup.cfs", func() error {
			res, err := harpsim.Run(sc, harpsim.Options{Policy: harpsim.PolicyCFS, Seed: paperSeeds[0], Governor: sim.GovernorPowersave})
			if err != nil {
				return err
			}
			w.cfsJ += res.EnergyJ
			w.cfsMakespan += res.MakespanSec
			return nil
		}); err != nil {
			return err
		}
	}
	if w.env.tr != nil {
		w.metrics = telemetry.NewMetrics(telemetry.NewRegistry())
	}
	// Warm-up: the six two-application scenarios under HARP settle the heap
	// and the code paths without costing a whole pass.
	warm := w.scenarios
	if !w.env.small {
		warm = w.scenarios[:6]
	}
	for _, sc := range warm {
		if err := m.time("setup.warmup", func() error {
			_, err := w.run(sc, 0)
			return err
		}); err != nil {
			return err
		}
	}
	if w.metrics != nil { // count the measured passes only
		w.metrics = telemetry.NewMetrics(telemetry.NewRegistry())
	}
	return nil
}

// run simulates one scenario under HARP and checks what comes back.
func (w *paperEval) run(sc harpsim.Scenario, seed int64) (*harpsim.Result, error) {
	res, err := harpsim.Run(sc, harpsim.Options{
		Policy:         harpsim.PolicyHARP,
		Seed:           seed,
		Governor:       sim.GovernorPowersave,
		AllocWarmStart: true,
		RecordTimeline: true,
		// An empty fault plan injects nothing; it makes the timeline carry the
		// exit events the isolation check needs to replay standing grants.
		Faults:  &faultsim.Plan{},
		Metrics: w.metrics,
	})
	if err != nil {
		return nil, err
	}
	if len(res.Apps) != len(sc.Apps) || res.MakespanSec <= 0 || res.EnergyJ <= 0 {
		return nil, fmt.Errorf("%s: incomplete result (%d of %d apps, makespan %.1f s, %.0f J)",
			sc.Name, len(res.Apps), len(sc.Apps), res.MakespanSec, res.EnergyJ)
	}
	return res, nil
}

func (w *paperEval) op(i int, m *meter) error {
	var failed []string
	for _, sc := range w.scenarios {
		var res *harpsim.Result
		err := m.time("op.paper-eval/"+sc.Name, func() error {
			var err error
			res, err = w.run(sc, paperSeeds[i%len(paperSeeds)])
			return err
		})
		if err == nil {
			err = w.checkTimeline(res)
		}
		if err != nil {
			failed = append(failed, err.Error())
			continue
		}
		w.harpJ += res.EnergyJ
		w.harpMakespan += res.MakespanSec
		if res.StableAfterSec > 0 {
			w.stableS += res.StableAfterSec
		}
		for _, ev := range res.Timeline {
			if ev.Exploring {
				w.exploreSteps++
			}
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("%s", strings.Join(failed, "; "))
	}
	w.passes++
	return nil
}

// checkTimeline replays the run's applied decisions through the
// internal/check isolation invariant.
func (w *paperEval) checkTimeline(res *harpsim.Result) error {
	entries := make([]check.TimelineEntry, len(res.Timeline))
	for i, ev := range res.Timeline {
		entries[i] = check.TimelineEntry{AtSec: ev.AtSec, Instance: ev.Instance, Cores: ev.Cores, CoAllocated: ev.CoAllocated}
	}
	return check.CheckTimelineIsolation(w.plat, entries)
}

func (w *paperEval) finish() (finals, error) {
	f := finals{layer: map[string]float64{}}
	if w.passes == 0 {
		return f, fmt.Errorf("no pass completed")
	}
	n := float64(w.passes)
	f.energyX = w.harpJ / (w.cfsJ * n)
	f.layer["harpsim.makespan_x"] = w.harpMakespan / (w.cfsMakespan * n)
	f.layer["explore.steps_per_pass"] = w.exploreSteps / n
	f.layer["explore.stable_after_sim_s"] = w.stableS / n
	f.layer["_sim_s_per_pass"] = w.harpMakespan / n
	if mt := w.metrics; mt != nil {
		f.layer["alloc.source_cached"] = float64(mt.AllocCacheHits.Value())
		warm := float64(mt.AllocWarmStartIters.Count())
		f.layer["alloc.source_warm"] = warm
		f.layer["alloc.source_cold"] = float64(mt.AllocCacheMisses.Value()) - warm
		if warm > 0 {
			f.layer["alloc.lambda_iters_per_solve"] = mt.AllocWarmStartIters.Sum() / warm
		}
		for _, rung := range []string{alloc.SourceDegradedGreedy, alloc.SourceDegradedStale, alloc.SourceFrozen} {
			f.layer["core.degraded_epochs"] += float64(mt.EpochDegraded.With(rung).Value())
		}
	}
	return f, nil
}
