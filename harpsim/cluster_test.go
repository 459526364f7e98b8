package harpsim

// Fleet chaos suite. These tests run the RunCluster harness with seeded
// churn and injected machine/coordinator kills under per-tick CheckFleet
// grading, and assert the PR's headline invariants: no double placement,
// bounded re-home after a kill, fleet power never above the budget (even
// mid-migration), and byte-identical same-seed journals.

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/harp-rm/harp/internal/core"
	"github.com/harp-rm/harp/internal/faultsim"
)

// rehomeBound is the asserted ceiling on how long a once-placed session
// may stay unowned: cluster.DefaultDeadAfter ticks to declare the machine
// dead, one tick of coordinator failover slack, the client-retry delay,
// and the remove-then-add migration tick.
const rehomeBound = 4 + clientRetryAfter + 4

func atTick(n int) time.Duration { return time.Duration(n) * core.AdaptationTick }

func clusterOpts(seed int64) ClusterOptions {
	return ClusterOptions{
		Machines:      4,
		Sessions:      6,
		Ticks:         240,
		EventsPerTick: 1,
		Seed:          seed,
		FleetBudgetW:  60, // caps 15 W/machine; sessions demand 3 W each
		Verify:        true,
	}
}

func runCluster(t *testing.T, opts ClusterOptions) *ClusterResult {
	t.Helper()
	res, err := RunCluster(opts)
	if err != nil {
		t.Fatalf("RunCluster: %v", err)
	}
	if opts.FleetBudgetW > 0 && res.MaxFleetPowerW > opts.FleetBudgetW+1e-6 {
		t.Fatalf("fleet power peaked at %.2f W, budget %.2f W", res.MaxFleetPowerW, opts.FleetBudgetW)
	}
	return res
}

func TestClusterHealthyRunPlacesEverything(t *testing.T) {
	res := runCluster(t, clusterOpts(1))
	if res.Stats.Placements == 0 {
		t.Fatal("no placements recorded")
	}
	if res.FinalUnowned != 0 {
		t.Fatalf("%d of %d sessions unowned at end of a healthy run", res.FinalUnowned, res.FinalSessions)
	}
	if res.Health.Status != "ok" {
		t.Fatalf("health = %+v, want ok", res.Health)
	}
	if res.EnergyJ <= 0 {
		t.Fatalf("energy model integrated %.3f J", res.EnergyJ)
	}
}

func TestClusterMachineKillRehomesBounded(t *testing.T) {
	opts := clusterOpts(2)
	opts.Plan = &faultsim.Plan{Seed: 2, Faults: []faultsim.Fault{
		{At: atTick(80), Target: "m1", Kind: faultsim.KindMachineKill},
	}}
	res := runCluster(t, opts)
	if res.Stats.MachineDeaths != 1 {
		t.Fatalf("machine deaths = %d, want 1", res.Stats.MachineDeaths)
	}
	if res.MaxUnownedTicks > rehomeBound {
		t.Fatalf("re-home took %d ticks, bound %d", res.MaxUnownedTicks, rehomeBound)
	}
	if res.FinalUnowned != 0 {
		t.Fatalf("%d sessions still unowned after re-home", res.FinalUnowned)
	}
	if res.Health.MachinesAlive != 3 {
		t.Fatalf("machines alive = %d, want 3", res.Health.MachinesAlive)
	}
}

func TestClusterCoordinatorKillFailsOver(t *testing.T) {
	opts := clusterOpts(3)
	opts.Plan = &faultsim.Plan{Seed: 3, Faults: []faultsim.Fault{
		{At: atTick(100), Target: faultsim.CoordinatorTarget, Kind: faultsim.KindCoordKill},
	}}
	res := runCluster(t, opts)
	if res.Stats.Failovers != 1 {
		t.Fatalf("failovers = %d, want 1", res.Stats.Failovers)
	}
	if res.MaxUnownedTicks > rehomeBound {
		t.Fatalf("recovery took %d ticks, bound %d", res.MaxUnownedTicks, rehomeBound)
	}
	if res.FinalUnowned != 0 {
		t.Fatalf("%d sessions unowned after failover", res.FinalUnowned)
	}
	if res.Health.Coordinator != "promoted-standby" {
		t.Fatalf("coordinator = %q, want promoted-standby", res.Health.Coordinator)
	}
}

func TestClusterCombinedChaos(t *testing.T) {
	opts := clusterOpts(4)
	opts.Ticks = 320
	opts.Plan = &faultsim.Plan{Seed: 4, Faults: []faultsim.Fault{
		{At: atTick(60), Target: "m2", Kind: faultsim.KindMachineKill},
		{At: atTick(120), Target: faultsim.CoordinatorTarget, Kind: faultsim.KindCoordKill},
		{At: atTick(200), Target: "m0", Kind: faultsim.KindMachineKill},
	}}
	res := runCluster(t, opts)
	if res.Stats.MachineDeaths != 2 || res.Stats.Failovers != 1 {
		t.Fatalf("deaths=%d failovers=%d, want 2 and 1", res.Stats.MachineDeaths, res.Stats.Failovers)
	}
	if res.MaxUnownedTicks > rehomeBound {
		t.Fatalf("re-home took %d ticks, bound %d", res.MaxUnownedTicks, rehomeBound)
	}
	if res.FinalUnowned != 0 {
		t.Fatalf("%d sessions unowned at end", res.FinalUnowned)
	}
}

func TestClusterKillDuringMigrationWindow(t *testing.T) {
	// A machine kill landing right after a drain opens (a departure-heavy
	// stretch keeps migrations flowing) exercises the in-flight abort
	// path; per-tick CheckFleet proves the budget holds across the window.
	opts := clusterOpts(5)
	opts.Ticks = 320
	opts.EventsPerTick = 2
	opts.Plan = &faultsim.Plan{Seed: 5, Faults: []faultsim.Fault{
		{At: atTick(90), Target: "m0", Kind: faultsim.KindMachineKill},
		{At: atTick(91) + core.AdaptationTick/2, Target: "m3", Kind: faultsim.KindMachineKill},
	}}
	res := runCluster(t, opts)
	if res.Stats.MachineDeaths != 2 {
		t.Fatalf("machine deaths = %d, want 2", res.Stats.MachineDeaths)
	}
	if res.FinalUnowned != 0 {
		t.Fatalf("%d sessions unowned at end", res.FinalUnowned)
	}
}

type journalCapture struct {
	cluster  bytes.Buffer
	machines map[string]*bytes.Buffer
}

func captureClusterRun(t *testing.T, seed int64) *journalCapture {
	t.Helper()
	c := &journalCapture{machines: map[string]*bytes.Buffer{}}
	opts := clusterOpts(seed)
	opts.Ticks = 160
	opts.Plan = &faultsim.Plan{Seed: seed, Faults: []faultsim.Fault{
		{At: atTick(40), Target: "m1", Kind: faultsim.KindMachineKill},
		{At: atTick(90), Target: faultsim.CoordinatorTarget, Kind: faultsim.KindCoordKill},
	}}
	opts.Journal = &c.cluster
	opts.MachineJournal = func(id string) io.Writer {
		b := &bytes.Buffer{}
		c.machines[id] = b
		return b
	}
	runCluster(t, opts)
	return c
}

func TestClusterSameSeedByteIdenticalJournals(t *testing.T) {
	a := captureClusterRun(t, 7)
	b := captureClusterRun(t, 7)
	if !bytes.Equal(a.cluster.Bytes(), b.cluster.Bytes()) {
		t.Fatal("same-seed cluster journals differ")
	}
	if a.cluster.Len() == 0 {
		t.Fatal("cluster journal empty")
	}
	for id, buf := range a.machines {
		other, ok := b.machines[id]
		if !ok || !bytes.Equal(buf.Bytes(), other.Bytes()) {
			t.Fatalf("same-seed machine journal %s differs", id)
		}
	}
	c := captureClusterRun(t, 8)
	if bytes.Equal(a.cluster.Bytes(), c.cluster.Bytes()) {
		t.Fatal("different seeds produced identical cluster journals")
	}
}

func TestClusterDynamicConsolidatesBelowStaticEnergy(t *testing.T) {
	// Same seed, same churn stream: dynamic bin-packing with drain
	// consolidation must park machines that static hash partitioning
	// keeps lit, so it finishes with fewer active machine-ticks and less
	// energy. This is the Fig-style experiment's claim in miniature.
	base := ClusterOptions{
		Machines:      4,
		Sessions:      3,
		Ticks:         240,
		EventsPerTick: 1,
		Seed:          11,
		FleetBudgetW:  60,
		Verify:        true,
	}
	dynamic := runCluster(t, base)
	st := base
	st.Static = true
	static := runCluster(t, st)
	if dynamic.ActiveMachineTicks >= static.ActiveMachineTicks {
		t.Fatalf("dynamic used %d active machine-ticks, static %d — no consolidation",
			dynamic.ActiveMachineTicks, static.ActiveMachineTicks)
	}
	if dynamic.EnergyJ >= static.EnergyJ {
		t.Fatalf("dynamic energy %.2f J >= static %.2f J", dynamic.EnergyJ, static.EnergyJ)
	}
}

// TestClusterMultiSeedSweep is the nightly chaos sweep: many seeds, full
// fault mix, per-tick invariant grading. Gated behind HARP_CLUSTER_LONG;
// when HARP_CLUSTER_JOURNAL_DIR is set, journals are written there so CI
// can upload them as artifacts on failure.
func TestClusterMultiSeedSweep(t *testing.T) {
	if os.Getenv("HARP_CLUSTER_LONG") == "" {
		t.Skip("set HARP_CLUSTER_LONG=1 to run the multi-seed sweep")
	}
	dir := os.Getenv("HARP_CLUSTER_JOURNAL_DIR")
	if dir == "" {
		dir = t.TempDir()
	} else if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 10; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			jf, err := os.Create(filepath.Join(dir, fmt.Sprintf("cluster-seed%d.jsonl", seed)))
			if err != nil {
				t.Fatal(err)
			}
			defer jf.Close()
			opts := clusterOpts(seed)
			opts.Ticks = 600
			opts.EventsPerTick = 2
			opts.Journal = jf
			opts.Plan = &faultsim.Plan{Seed: seed, Faults: []faultsim.Fault{
				{At: atTick(100), Target: fmt.Sprintf("m%d", seed%4), Kind: faultsim.KindMachineKill},
				{At: atTick(250), Target: faultsim.CoordinatorTarget, Kind: faultsim.KindCoordKill},
			}}
			res := runCluster(t, opts)
			if res.MaxUnownedTicks > rehomeBound {
				t.Fatalf("seed %d: re-home took %d ticks, bound %d", seed, res.MaxUnownedTicks, rehomeBound)
			}
			if res.FinalUnowned != 0 {
				t.Fatalf("seed %d: %d sessions unowned at end", seed, res.FinalUnowned)
			}
		})
	}
}
