// Full-run invariant tests: the reusable internal/check suite asserted over
// complete simulated runs, including fault injection and liveness
// escalation. These are the system-level half of the correctness harness
// (the per-solve half lives in internal/alloc/differential_test.go); see
// DESIGN.md §6.
package harpsim

import (
	"bytes"
	"fmt"
	"os"
	"testing"
	"time"

	"github.com/harp-rm/harp/internal/check"
	"github.com/harp-rm/harp/internal/faultsim"
	"github.com/harp-rm/harp/internal/telemetry"
	"github.com/harp-rm/harp/internal/workload"
)

// toEntries converts a run timeline into the checker's reduced form.
func toEntries(timeline []TimelineEvent) []check.TimelineEntry {
	out := make([]check.TimelineEntry, len(timeline))
	for i, ev := range timeline {
		out[i] = check.TimelineEntry{
			AtSec:       ev.AtSec,
			Instance:    ev.Instance,
			Cores:       ev.Cores,
			CoAllocated: ev.CoAllocated,
		}
	}
	return out
}

// invariantSeeds picks the sweep width: a handful of chaotic runs per push,
// more for the nightly HARP_CHECK_LONG sweep.
func invariantSeeds(t *testing.T) int64 {
	t.Helper()
	if os.Getenv("HARP_CHECK_LONG") != "" {
		return 24
	}
	if testing.Short() {
		return 2
	}
	return 6
}

// TestSimInvariantsUnderChaos runs randomized fault-injected scenarios with
// aggressive liveness deadlines and asserts the full-run invariants: no core
// double-granted to isolated sessions at any instant (including across
// quarantines and reaps, whose core-clearing events the timeline records),
// never more distinct cores granted than the platform has, and a decision
// journal that is internally consistent — epochs numbered from 1,
// non-decreasing timestamps, strictly increasing decision sequence numbers.
func TestSimInvariantsUnderChaos(t *testing.T) {
	suite := workload.IntelApps()
	names := make([]string, 0, len(suite))
	for _, prof := range suite {
		names = append(names, prof.Name)
	}
	n := invariantSeeds(t)
	for seed := int64(0); seed < n; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			// Derive the app mix from the seed so one seed reproduces the
			// whole scenario.
			nApps := 2 + int(seed%3)
			var apps []string
			for i := 0; i < nApps; i++ {
				apps = append(apps, names[int(seed+int64(i)*3)%len(names)])
			}
			sc := intelScenario(t, apps...)
			sc.Name = fmt.Sprintf("%s-seed%d", sc.Name, seed)
			plan := faultsim.Generate(seed, apps, 10*time.Second, 4)
			res, journal, _ := chaosRun(t, sc, plan, seed)

			if err := check.CheckTimelineIsolation(sc.Platform, toEntries(res.Timeline)); err != nil {
				t.Errorf("timeline isolation: %v", err)
			}
			records, err := telemetry.ReadJournal(bytes.NewReader(journal))
			if err != nil {
				t.Fatalf("ReadJournal: %v", err)
			}
			if len(records) == 0 {
				t.Fatal("chaos run produced an empty journal")
			}
			if err := check.CheckJournal(records); err != nil {
				t.Errorf("journal contract: %v", err)
			}
			for _, rec := range records {
				if rec.Error != "" {
					t.Errorf("epoch %d recorded an allocation error: %s", rec.Epoch, rec.Error)
				}
			}
		})
	}
}

// TestSimJournalMatchesPushedInvariant asserts, via the reusable checker,
// that a traced run's journal outputs are exactly the pushed-decision stream
// — the property that makes the journal a faithful replay log.
func TestSimJournalMatchesPushedInvariant(t *testing.T) {
	sc := intelScenario(t, "cg.C", "mg.C")
	tables := OfflineDSETables(sc.Platform, sc.Apps)
	journal, _, events, _ := tracedRun(t, sc, Options{
		Policy: PolicyHARPOffline, OfflineTables: tables, Seed: 5,
	})
	var pushed []telemetry.EpochOutput
	for _, ev := range events {
		if ev.Kind != telemetry.EvDecisionPushed {
			continue
		}
		pushed = append(pushed, telemetry.EpochOutput{
			Instance:    ev.Instance,
			Seq:         ev.Seq,
			Vector:      ev.Vector,
			Threads:     int(ev.Vals[0]),
			Cores:       int(ev.Vals[1]),
			Exploring:   ev.Exploring,
			CoAllocated: ev.CoAllocated,
			PredPowerW:  ev.Power,
		})
	}
	if len(pushed) == 0 {
		t.Fatal("run pushed no decisions")
	}
	records, err := telemetry.ReadJournal(bytes.NewReader(journal))
	if err != nil {
		t.Fatal(err)
	}
	if err := check.CheckJournal(records); err != nil {
		t.Fatalf("journal contract: %v", err)
	}
	if err := check.CheckJournalMatchesPushed(records, pushed); err != nil {
		t.Fatal(err)
	}
}

// TestSimTimelineIsolationFaultFree covers the quiet path: a run with no
// faults and no liveness pressure must, of course, also satisfy the isolation
// invariants end to end. The timeline's session ends (exit/deregister) are
// what lets the check replay standing allocations.
func TestSimTimelineIsolationFaultFree(t *testing.T) {
	sc := intelScenario(t, "ep.C", "cg.C", "ft.C")
	tables := OfflineDSETables(sc.Platform, sc.Apps)
	res := mustRun(t, sc, Options{
		Policy: PolicyHARPOffline, OfflineTables: tables, Seed: 1, RecordTimeline: true,
	})
	if len(res.Timeline) == 0 {
		t.Fatal("run recorded no timeline")
	}
	if err := check.CheckTimelineIsolation(sc.Platform, toEntries(res.Timeline)); err != nil {
		t.Fatal(err)
	}
}
