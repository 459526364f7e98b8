package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"github.com/harp-rm/harp/internal/check"
	"github.com/harp-rm/harp/internal/opoint"
	"github.com/harp-rm/harp/internal/platform"
	"github.com/harp-rm/harp/internal/workload"
)

func testPlat() *platform.Platform {
	p := &platform.Platform{
		Name:            "cluster-test",
		MemBWGips:       50,
		EnergySensors:   "package",
		SimultaneousPMU: true,
		Kinds: []platform.CoreKind{
			{Name: "P", Count: 8, SMT: 1, MaxFreqGHz: 3, MinFreqGHz: 0.5, IPC: 2, ActiveWatts: 2, IdleWatts: 0.2, SleepWatts: 0.02},
			{Name: "E", Count: 8, SMT: 1, MaxFreqGHz: 2, MinFreqGHz: 0.5, IPC: 1.5, ActiveWatts: 1, IdleWatts: 0.1, SleepWatts: 0.01},
		},
	}
	if err := p.Validate(); err != nil {
		panic(err)
	}
	return p
}

// testSpec builds a session whose worst-case demand is exactly demandW.
func testSpec(p *platform.Platform, inst string, demandW float64) SessionSpec {
	app := "app-" + inst
	t := &opoint.Table{App: app, Platform: p.Name}
	for cores := 1; cores <= 2; cores++ {
		rv := platform.NewResourceVector(p)
		rv.Counts[0][0] = cores
		t.Upsert(opoint.OperatingPoint{
			Vector:   rv,
			Utility:  4 * float64(cores),
			Power:    demandW * float64(cores) / 2,
			Measured: true,
		})
	}
	return SessionSpec{Instance: inst, App: app, Adaptivity: workload.Scalable, Table: t}
}

func testFleet(t *testing.T, machines int, budgetW float64, mut func(*Config)) *Fleet {
	t.Helper()
	cfg := Config{
		Machines:     machines,
		Platform:     testPlat(),
		FleetBudgetW: budgetW,
		Verify:       true,
	}
	if mut != nil {
		mut(&cfg)
	}
	f, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return f
}

func mustTick(t *testing.T, f *Fleet, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := f.Tick(); err != nil {
			t.Fatalf("Tick: %v (health %+v)", err, f.Health())
		}
	}
}

func TestPlacementBinPacksUnderBudget(t *testing.T) {
	f := testFleet(t, 3, 30, nil) // caps 10 W each
	for i := 0; i < 5; i++ {
		if err := f.Submit(testSpec(f.cfg.Platform, fmt.Sprintf("s%d", i), 4)); err != nil {
			t.Fatalf("Submit: %v", err)
		}
	}
	mustTick(t, f, 2)
	owners := map[string]int{}
	for i := 0; i < 5; i++ {
		m := f.Owner(fmt.Sprintf("s%d", i))
		if m == "" {
			t.Fatalf("s%d unplaced; health %+v", i, f.Health())
		}
		owners[m]++
	}
	// Best-fit at 4 W a session under 10 W caps: two sessions fill a
	// machine, so five sessions pack 2+2+1 — no machine is left half-used
	// while another could still take the load.
	counts := []int{owners["m0"], owners["m1"], owners["m2"]}
	if counts[0] != 2 || counts[1] != 2 || counts[2] != 1 {
		t.Fatalf("owners = %v, want 2+2+1 packing", owners)
	}
	if h := f.Health(); h.Status != "ok" {
		t.Fatalf("health = %+v", h)
	}
	if err := check.CheckFleet(f.View()); err != nil {
		t.Fatalf("CheckFleet: %v", err)
	}
}

func TestPlacementRejectsWhenFleetFull(t *testing.T) {
	f := testFleet(t, 2, 10, nil) // caps 5 W each
	for i := 0; i < 3; i++ {
		if err := f.Submit(testSpec(f.cfg.Platform, fmt.Sprintf("s%d", i), 4)); err != nil {
			t.Fatalf("Submit: %v", err)
		}
	}
	mustTick(t, f, 2)
	placed := 0
	for i := 0; i < 3; i++ {
		if f.Owner(fmt.Sprintf("s%d", i)) != "" {
			placed++
		}
	}
	if placed != 2 {
		t.Fatalf("placed = %d, want 2 (one 4 W session per 5 W cap)", placed)
	}
	if f.Stats().Rejected == 0 {
		t.Fatal("no rejection counted for the unplaceable session")
	}
	if h := f.Health(); h.Status != "degraded" || h.Unplaced != 1 {
		t.Fatalf("health = %+v, want degraded with 1 unplaced", h)
	}
}

func TestSubmitValidation(t *testing.T) {
	f := testFleet(t, 1, 0, nil)
	spec := testSpec(f.cfg.Platform, "a", 2)
	if err := f.Submit(spec); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if err := f.Submit(spec); !errors.Is(err, ErrDuplicateSession) {
		t.Fatalf("queued duplicate: %v", err)
	}
	mustTick(t, f, 1)
	if err := f.Submit(spec); !errors.Is(err, ErrDuplicateSession) {
		t.Fatalf("placed duplicate: %v", err)
	}
	if err := f.Submit(SessionSpec{Instance: "b", App: "b"}); !errors.Is(err, ErrNoTable) {
		t.Fatalf("tableless submit: %v", err)
	}
	if err := f.Deregister("nope"); !errors.Is(err, ErrUnknownSession) {
		t.Fatalf("unknown deregister: %v", err)
	}
	f.KillCoordinator()
	if err := f.Submit(testSpec(f.cfg.Platform, "c", 2)); !errors.Is(err, ErrNoCoordinator) {
		t.Fatalf("headless submit: %v", err)
	}
	mustTick(t, f, 1) // standby promotes
	if err := f.Submit(testSpec(f.cfg.Platform, "c", 2)); err != nil {
		t.Fatalf("submit after promotion: %v", err)
	}
}

func TestMachineKillRehomesSessions(t *testing.T) {
	f := testFleet(t, 3, 30, nil)
	for i := 0; i < 6; i++ {
		if err := f.Submit(testSpec(f.cfg.Platform, fmt.Sprintf("s%d", i), 3)); err != nil {
			t.Fatalf("Submit: %v", err)
		}
	}
	mustTick(t, f, 2)
	victim := f.Owner("s0")
	if victim == "" {
		t.Fatal("s0 unplaced")
	}
	if err := f.KillMachine(victim); err != nil {
		t.Fatal(err)
	}
	// Declaration after DeadAfter missed beats, re-home on the same tick.
	mustTick(t, f, DefaultDeadAfter+1)
	if f.Stats().MachineDeaths != 1 {
		t.Fatalf("machine deaths = %d, want 1", f.Stats().MachineDeaths)
	}
	for i := 0; i < 6; i++ {
		inst := fmt.Sprintf("s%d", i)
		m := f.Owner(inst)
		if m == "" {
			t.Fatalf("%s still orphaned after re-home window; health %+v", inst, f.Health())
		}
		if m == victim {
			t.Fatalf("%s still on the dead machine %s", inst, victim)
		}
	}
	if h := f.Health(); h.MachinesAlive != 2 || h.Status != "degraded" {
		t.Fatalf("health = %+v, want 2 alive machines (degraded)", h)
	}
}

func TestCoordinatorFailoverRecoversPlacements(t *testing.T) {
	var journal bytes.Buffer
	f := testFleet(t, 3, 30, func(c *Config) {
		c.SnapshotEvery = 2
		c.Journal = &journal
	})
	for i := 0; i < 5; i++ {
		if err := f.Submit(testSpec(f.cfg.Platform, fmt.Sprintf("s%d", i), 3)); err != nil {
			t.Fatalf("Submit: %v", err)
		}
	}
	mustTick(t, f, 4) // places everyone and ships at ticks 2 and 4
	before := map[string]string{}
	for i := 0; i < 5; i++ {
		inst := fmt.Sprintf("s%d", i)
		before[inst] = f.Owner(inst)
	}
	f.KillCoordinator()
	mustTick(t, f, 1)
	if f.Stats().Failovers != 1 {
		t.Fatalf("failovers = %d, want 1", f.Stats().Failovers)
	}
	if h := f.Health(); h.Coordinator != "promoted-standby" {
		t.Fatalf("health = %+v, want promoted-standby", h)
	}
	for inst, m := range before {
		if got := f.Owner(inst); got != m {
			t.Fatalf("%s moved across failover: %s → %s", inst, m, got)
		}
	}
	// The promoted coordinator keeps full re-home capability: kill a
	// machine and its sessions must land elsewhere.
	if err := f.KillMachine(before["s0"]); err != nil {
		t.Fatal(err)
	}
	mustTick(t, f, DefaultDeadAfter+1)
	if m := f.Owner("s0"); m == "" || m == before["s0"] {
		t.Fatalf("s0 on %q after post-failover machine kill", m)
	}
	for _, ev := range []string{`"ev":"failover"`, `"ev":"ship"`, `"ev":"machine-dead"`} {
		if !strings.Contains(journal.String(), ev) {
			t.Fatalf("journal missing %s:\n%s", ev, journal.String())
		}
	}
}

func TestDrainConsolidatesAndMigrates(t *testing.T) {
	f := testFleet(t, 2, 24, nil) // caps 12 W each
	// Best-fit at 3 W: four sessions fill m0 (12 W), the fifth spills.
	for i := 0; i < 5; i++ {
		if err := f.Submit(testSpec(f.cfg.Platform, fmt.Sprintf("s%d", i), 3)); err != nil {
			t.Fatalf("Submit: %v", err)
		}
	}
	mustTick(t, f, 2)
	perMachine := map[string][]string{}
	for i := 0; i < 5; i++ {
		inst := fmt.Sprintf("s%d", i)
		perMachine[f.Owner(inst)] = append(perMachine[f.Owner(inst)], inst)
	}
	var spillInst, spillMachine string
	for m, insts := range perMachine {
		if len(insts) == 1 {
			spillMachine, spillInst = m, insts[0]
		}
	}
	if spillInst == "" {
		t.Fatalf("no 4/1 split: %v", perMachine)
	}
	// A departure on the full machine opens 3 W of headroom — enough for
	// the drain to consolidate the spill machine away.
	var fullInsts []string
	for m, insts := range perMachine {
		if m != spillMachine {
			fullInsts = insts
		}
	}
	if err := f.Deregister(fullInsts[0]); err != nil {
		t.Fatal(err)
	}
	mustTick(t, f, 3) // drain plan + migrate-start + migrate-done
	if f.Stats().Migrations == 0 {
		t.Fatalf("no migration after drain window; stats %+v", f.Stats())
	}
	if got := f.Owner(spillInst); got == "" || got == spillMachine {
		t.Fatalf("%s owner = %q, want moved off %s", spillInst, got, spillMachine)
	}
	if h := f.Health(); h.Status != "ok" {
		t.Fatalf("health after drain = %+v", h)
	}
}

func TestKillDuringMigrationAborts(t *testing.T) {
	f := testFleet(t, 3, 30, func(c *Config) { c.DeadAfter = 1 })
	// Two 4 W sessions fill m0 to 8/10, so the 3 W session spills to m1.
	// Deregistering a1 then opens 6 W of headroom on m0, making m1
	// drainable.
	specs := []struct {
		inst    string
		demandW float64
	}{{"a0", 4}, {"a1", 4}, {"b0", 3}}
	for _, s := range specs {
		if err := f.Submit(testSpec(f.cfg.Platform, s.inst, s.demandW)); err != nil {
			t.Fatal(err)
		}
	}
	mustTick(t, f, 1)
	if src := f.Owner("b0"); src == "" || src == f.Owner("a0") {
		t.Fatalf("unexpected spread: b0 on %q, a0 on %q", src, f.Owner("a0"))
	}
	if err := f.Deregister("a1"); err != nil {
		t.Fatal(err)
	}
	// Let the drain of b0's machine start, then kill the migration target
	// before the add half runs.
	for i := 0; i < 6; i++ {
		mustTick(t, f, 1)
		if f.Health().InFlight > 0 {
			break
		}
	}
	if f.Health().InFlight == 0 {
		t.Fatalf("no in-flight migration to interrupt; stats %+v", f.Stats())
	}
	target := f.coord.inflight[0].to
	if err := f.KillMachine(target); err != nil {
		t.Fatal(err)
	}
	// DeadAfter=1: next tick declares the target dead, aborts the flight
	// and re-homes; every tick in between must keep the invariants.
	mustTick(t, f, 4)
	if m := f.Owner("b0"); m == "" || m == target {
		t.Fatalf("b0 on %q after target kill (target %s)", m, target)
	}
	if err := check.CheckFleet(f.View()); err != nil {
		t.Fatalf("CheckFleet: %v", err)
	}
}

func TestJournalDeterminism(t *testing.T) {
	run := func() string {
		var buf bytes.Buffer
		f := testFleet(t, 3, 30, func(c *Config) {
			c.Journal = &buf
			c.SnapshotEvery = 2
		})
		for i := 0; i < 6; i++ {
			if err := f.Submit(testSpec(f.cfg.Platform, fmt.Sprintf("s%d", i), 3)); err != nil {
				t.Fatal(err)
			}
		}
		mustTick(t, f, 3)
		if err := f.KillMachine(f.Owner("s0")); err != nil {
			t.Fatal(err)
		}
		mustTick(t, f, DefaultDeadAfter+1)
		f.KillCoordinator()
		mustTick(t, f, 3)
		if err := f.Deregister("s1"); err != nil {
			t.Fatal(err)
		}
		mustTick(t, f, 2)
		if err := f.JournalErr(); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same scripted run produced different journals:\n--- a ---\n%s--- b ---\n%s", a, b)
	}
	if a == "" {
		t.Fatal("empty journal")
	}
}
