package experiments

import (
	"fmt"
	"io"

	"github.com/harp-rm/harp/harpsim"
	"github.com/harp-rm/harp/internal/mathx"
	"github.com/harp-rm/harp/internal/platform"
	"github.com/harp-rm/harp/internal/workload"
)

// OverheadRow is one scenario's management overhead: HARP fully active
// (monitoring, exploration, communication) but with activation messages
// dropped in libharp, so applications remain CFS-scheduled (§6.6).
type OverheadRow struct {
	Scenario        string
	CFSMakespanSec  float64
	OverheadPercent float64
}

// OverheadResult reproduces §6.6: HARP introduces < 1 % overhead for single
// applications and ≈ 2.5 % in multi-application scenarios.
type OverheadResult struct {
	Rows       []OverheadRow
	SingleMean float64
	MultiMean  float64
}

// Overhead runs the overhead measurement.
func Overhead(cfg Config) (*OverheadResult, error) {
	cfg = cfg.withDefaults()
	plat := platform.RaptorLake()
	suite := workload.IntelApps()

	singles := []string{"ep.C", "ft.C", "mg.C", "lu.C", "binpack", "vgg"}
	multis := [][]string{
		{"cg.C", "mg.C"},
		{"ft.C", "mg.C", "cg.C"},
		{"bt.C", "cg.C", "ft.C", "is.C"},
		{"ep.C", "cg.C", "ft.C", "mg.C", "sp.C"},
	}
	if cfg.Quick {
		singles = []string{"ft.C"}
		multis = [][]string{{"cg.C", "mg.C", "ft.C"}}
	}

	scs, err := scenarioSet(plat, suite, singles, multis)
	if err != nil {
		return nil, err
	}
	base := harpsim.Options{Seed: cfg.Seed}
	runs, err := runArms(cfg, scs, []arm{
		policyArm(base, harpsim.PolicyCFS, nil),
		policyArm(base, harpsim.PolicyHARPOverhead, nil),
	})
	if err != nil {
		return nil, err
	}

	res := &OverheadResult{}
	pcts := make([]float64, len(scs))
	for s, sc := range scs {
		cfs := runs[s][0]
		pcts[s] = 100 * (runs[s][1].MakespanSec/cfs.MakespanSec - 1)
		res.Rows = append(res.Rows, OverheadRow{
			Scenario:        sc.Name,
			CFSMakespanSec:  cfs.MakespanSec,
			OverheadPercent: pcts[s],
		})
	}
	res.SingleMean = mathx.Mean(pcts[:len(singles)])
	res.MultiMean = mathx.Mean(pcts[len(singles):])
	return res, nil
}

// Format writes the overhead table.
func (r *OverheadResult) Format(w io.Writer) {
	writeHeader(w, "§6.6: HARP management overhead (adaptation dropped in libharp)")
	fmt.Fprintf(w, "%-28s %10s %10s\n", "scenario", "CFS[s]", "overhead")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-28s %10.2f %9.2f%%\n", row.Scenario, row.CFSMakespanSec, row.OverheadPercent)
	}
	fmt.Fprintf(w, "\naverage: single %.2f%% (paper: < 1%%), multi %.2f%% (paper: ≈ 2.5%%)\n",
		r.SingleMean, r.MultiMean)
}
