package harpsim

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/harp-rm/harp/internal/faultsim"
	"github.com/harp-rm/harp/internal/store"
	"github.com/harp-rm/harp/internal/telemetry"
)

// rmCrashPlan schedules one RM kill at the given virtual time, alongside a
// client dropout to exercise the mixed-fault path.
func rmCrashPlan(at time.Duration) *faultsim.Plan {
	return &faultsim.Plan{Faults: []faultsim.Fault{
		{At: at - time.Second, Target: "mg.C", Kind: faultsim.KindDropout, Duration: 2 * time.Second},
		{At: at, Target: faultsim.RMTarget, Kind: faultsim.KindRMCrash},
	}}
}

// chaosRunDurable is chaosRun with a state directory: the simulated RM
// persists its learned state and rm-crash faults restart it warm.
func chaosRunDurable(t *testing.T, sc Scenario, plan *faultsim.Plan, seed int64, stateDir string) (*Result, []byte, *telemetry.Metrics) {
	t.Helper()
	tables := OfflineDSETables(sc.Platform, sc.Apps)
	mt := telemetry.NewMetrics(telemetry.NewRegistry())
	var journal bytes.Buffer
	res := mustRun(t, sc, Options{
		Policy:         PolicyHARPOffline,
		OfflineTables:  tables,
		Seed:           seed,
		Liveness:       chaosLiveness(),
		Faults:         plan,
		StateDir:       stateDir,
		Tracer:         telemetry.NewTracer(1),
		Journal:        telemetry.NewJournal(&journal),
		Metrics:        mt,
		RecordTimeline: true,
	})
	return res, journal.Bytes(), mt
}

// Acceptance: an rm-crash mid-run restarts the RM warm from the state
// directory — the journal shows the recovery, the sessions resume as
// reconnects, and no core is ever double-granted across the restart.
func TestRMCrashWarmRestartMidRun(t *testing.T) {
	sc := intelScenario(t, "cg.C", "mg.C")
	stateDir := filepath.Join(t.TempDir(), "state")
	res, journal, mt := chaosRunDurable(t, sc, rmCrashPlan(3*time.Second), 11, stateDir)

	if res.RMRestarts != 1 {
		t.Fatalf("RMRestarts = %d, want 1", res.RMRestarts)
	}
	out := string(journal)
	// Two recover epochs: the initial (cold) open and the post-crash warm
	// restart.
	if got := strings.Count(out, `"trigger":"recover"`); got != 2 {
		t.Fatalf("recover epochs = %d, want 2:\n%s", got, out)
	}
	if !strings.Contains(out, `"trigger":"snapshot"`) {
		t.Fatal("clean run end did not journal the final snapshot")
	}
	// cg.C was live and unmuted at the crash: its session resumes as a
	// reconnect of a prior instance.
	if got := mt.Reconnects.Value(); got < 1 {
		t.Fatalf("reconnects = %d, want >= 1", got)
	}
	assertNoDoubleGrant(t, res.Timeline)

	// The graceful end-of-run snapshot must hold the learned tables.
	st, err := store.Open(stateDir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if st.Generation() != 3 { // run open, crash reopen, this open
		t.Fatalf("generation = %d, want 3", st.Generation())
	}
	rec := st.Recovery()
	if rec.ColdStart || !rec.SnapshotLoaded {
		t.Fatalf("post-run recovery = %+v, want warm snapshot", rec)
	}
	measured := 0
	for _, tbl := range st.RecoveredState().Tables {
		measured += tbl.MeasuredCount()
	}
	if measured == 0 {
		t.Fatal("final snapshot lost the learned operating points")
	}
}

// Acceptance (determinism): the same seed and the same crash epoch produce
// byte-identical journals, including the resumed part after the RM restart —
// the whole crash-recovery path runs on the virtual clock.
func TestRMCrashSameSeedIdenticalResumedJournals(t *testing.T) {
	sc := intelScenario(t, "cg.C", "mg.C", "is.C")
	run := func(dir string) []byte {
		_, journal, _ := chaosRunDurable(t, sc, rmCrashPlan(4*time.Second), 7, dir)
		return journal
	}
	a := run(filepath.Join(t.TempDir(), "a"))
	b := run(filepath.Join(t.TempDir(), "b"))
	if len(a) == 0 {
		t.Fatal("rm-crash run produced an empty journal")
	}
	if !bytes.Equal(a, b) {
		t.Fatal("same seed and crash epoch produced different resumed journals")
	}
}

// Acceptance: rm-crash without a state directory restarts the RM cold — the
// run still completes, sessions re-register, but nothing is recovered.
func TestRMCrashColdWithoutStateDir(t *testing.T) {
	sc := intelScenario(t, "cg.C", "mg.C")
	res, journal, _ := chaosRun(t, sc, rmCrashPlan(3*time.Second), 11)
	if res.RMRestarts != 1 {
		t.Fatalf("RMRestarts = %d, want 1", res.RMRestarts)
	}
	if res.MakespanSec <= 0 {
		t.Fatal("run did not complete")
	}
	if strings.Contains(string(journal), `"trigger":"recover"`) {
		t.Fatal("cold restart without a store journalled a recovery")
	}
	assertNoDoubleGrant(t, res.Timeline)
}

// A generated plan may not schedule rm-crash (application targets only), but
// a hand-written one must validate its target.
func TestRMCrashPlanValidation(t *testing.T) {
	bad := &faultsim.Plan{Faults: []faultsim.Fault{
		{At: time.Second, Target: "cg.C", Kind: faultsim.KindRMCrash},
	}}
	if err := bad.Validate(); err == nil {
		t.Fatal("rm-crash with an application target validated")
	}
	good := rmCrashPlan(3 * time.Second)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
}
