package experiments

import (
	"fmt"
	"io"

	"github.com/harp-rm/harp/harpsim"
	"github.com/harp-rm/harp/internal/platform"
	"github.com/harp-rm/harp/internal/sim"
	"github.com/harp-rm/harp/internal/workload"
)

// GovernorResult reproduces §6.3.3: the impact of the Linux frequency
// governor on HARP's improvements. The paper reports HARP at 1.20×/1.44×
// (time/energy) under performance versus 1.14×/1.42× under powersave, and
// HARP (Offline) at 1.36×/1.61× versus 1.34×/1.58× — i.e. only a minor
// effect.
type GovernorResult struct {
	// Factors[policy][governor] aggregates across all scenarios.
	Factors map[string]map[string]Factor
	// Scenarios lists the scenario names measured.
	Scenarios []string
}

// Governor runs the governor ablation across the Fig. 6 scenario mix.
func Governor(cfg Config) (*GovernorResult, error) {
	cfg = cfg.withDefaults()
	plat := platform.RaptorLake()
	suite := workload.IntelApps()

	singles := []string{"ep.C", "mg.C", "ft.C", "lu.C", "binpack"}
	multis := [][]string{
		{"cg.C", "mg.C"}, {"ft.C", "mg.C", "cg.C"},
		{"ep.C", "cg.C", "ft.C", "mg.C", "sp.C"},
	}
	if cfg.Quick {
		singles = []string{"mg.C"}
		multis = [][]string{{"cg.C", "mg.C"}}
	}
	scs, err := scenarioSet(plat, suite, singles, multis)
	if err != nil {
		return nil, err
	}
	offline := harpsim.OfflineDSETablesParallel(plat, suite, cfg.Parallelism)
	govNames := []string{"powersave", "performance"}
	govs := map[string]sim.Governor{
		"powersave":   sim.GovernorPowersave,
		"performance": sim.GovernorPerformance,
	}

	// Per governor: the CFS baseline, the learn-then-run HARP chain and HARP
	// (Offline), all under that governor.
	var arms []arm
	for _, g := range govNames {
		base := harpsim.Options{Seed: cfg.Seed, Governor: govs[g]}
		arms = append(arms,
			policyArm(base, harpsim.PolicyCFS, nil),
			learnedArm(base, cfg.LearnFor),
			policyArm(base, harpsim.PolicyHARPOffline, offline))
	}
	runs, err := runArms(cfg, scs, arms)
	if err != nil {
		return nil, err
	}

	res := &GovernorResult{Factors: map[string]map[string]Factor{
		"harp":         make(map[string]Factor),
		"harp-offline": make(map[string]Factor),
	}}
	for _, sc := range scs {
		res.Scenarios = append(res.Scenarios, sc.Name)
	}
	for g, govName := range govNames {
		var harpFactors, offFactors []Factor
		for _, r := range runs {
			cfs := r[3*g]
			harpFactors = append(harpFactors, factorOf(cfs, r[3*g+1]))
			offFactors = append(offFactors, factorOf(cfs, r[3*g+2]))
		}
		res.Factors["harp"][govName] = geoMeanFactors(harpFactors)
		res.Factors["harp-offline"][govName] = geoMeanFactors(offFactors)
	}
	return res, nil
}

// Format writes the governor ablation table.
func (r *GovernorResult) Format(w io.Writer) {
	writeHeader(w, "§6.3.3: frequency-governor ablation — Intel Raptor Lake")
	fmt.Fprintf(w, "%-14s %-13s %8s %8s\n", "policy", "governor", "time", "energy")
	for _, policy := range []string{"harp", "harp-offline"} {
		for _, gov := range []string{"powersave", "performance"} {
			f := r.Factors[policy][gov]
			fmt.Fprintf(w, "%-14s %-13s %7.2fx %7.2fx\n", policy, gov, f.Time, f.Energy)
		}
	}
	fmt.Fprintf(w, "(paper: harp 1.14x/1.42x powersave vs 1.20x/1.44x performance;\n")
	fmt.Fprintf(w, " offline 1.34x/1.58x powersave vs 1.36x/1.61x performance — minor effect)\n")
}
