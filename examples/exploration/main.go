// Exploration: watch HARP learn an unknown application's operating points at
// runtime (§5). The workload repeats on the simulated Raptor Lake while the
// resource manager explores configurations (20 measurements à 50 ms per
// point, 25 points to the stable stage); every 5 s the example snapshots the
// learning state, mirroring Fig. 8.
package main

import (
	"fmt"
	"os"
	"time"

	"github.com/harp-rm/harp/harpsim"
	"github.com/harp-rm/harp/internal/platform"
	"github.com/harp-rm/harp/internal/workload"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "exploration:", err)
		os.Exit(1)
	}
}

func run() error {
	plat := platform.RaptorLake()
	prof, err := workload.ByName(workload.IntelApps(), "seismic")
	if err != nil {
		return err
	}
	sc := harpsim.Scenario{Name: "seismic", Platform: plat, Apps: []*workload.Profile{prof}}

	fmt.Printf("learning %s on %s for 60 virtual seconds…\n\n", prof.Name, plat)
	lr, err := harpsim.LearnTables(sc, 60*time.Second, 5*time.Second, harpsim.Options{Seed: 7})
	if err != nil {
		return err
	}

	fmt.Printf("%8s %10s %16s\n", "t[s]", "stage", "measured points")
	for _, snap := range lr.Snapshots {
		stage := "learning"
		if snap.AllStable {
			stage = "stable"
		}
		fmt.Printf("%8.0f %10s %16d\n", snap.AtSec, stage, snap.Tables[prof.Name].MeasuredCount())
	}
	fmt.Printf("\nstable stage reached after %.1f s (paper: ≈ 30 s)\n", lr.StableAfterSec)

	// Show the best learned operating points by energy-utility cost: the
	// front comes in cost order, and it is shared, so it is read, not sorted.
	tbl := lr.Tables[prof.Name]
	vstar := tbl.MaxUtility()
	pts := tbl.ParetoPoints()
	fmt.Println("\nbest learned operating points (by energy-utility cost ζ):")
	fmt.Printf("%-12s %12s %10s %12s\n", "vector", "utility", "power[W]", "cost ζ")
	for i, op := range pts {
		if i == 5 {
			break
		}
		fmt.Printf("%-12s %12.1f %10.1f %12.1f\n", op.Vector.Key(), op.Utility, op.Power, op.Cost(vstar))
	}

	// And what those points buy: run the scenario with the learned tables.
	cfs, err := harpsim.Run(sc, harpsim.Options{Policy: harpsim.PolicyCFS, Seed: 7})
	if err != nil {
		return err
	}
	learned, err := harpsim.Run(sc, harpsim.Options{
		Policy:        harpsim.PolicyHARP,
		OfflineTables: lr.Tables,
		Seed:          7,
	})
	if err != nil {
		return err
	}
	fmt.Printf("\nwith learned knowledge: %.2f× time, %.2f× energy vs CFS\n",
		cfs.MakespanSec/learned.MakespanSec, cfs.EnergyJ/learned.EnergyJ)
	return nil
}
