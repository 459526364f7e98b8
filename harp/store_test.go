package harp

import (
	"bytes"
	"errors"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/harp-rm/harp/internal/core"
	"github.com/harp-rm/harp/internal/explore"
	"github.com/harp-rm/harp/internal/platform"
	"github.com/harp-rm/harp/internal/store"
	"github.com/harp-rm/harp/internal/telemetry"
	"github.com/harp-rm/harp/internal/workload"
)

// syncBuffer is a goroutine-safe journal sink: the measure loop journals
// epochs concurrently with the test's assertions.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// waitForSession polls the server until the instance's summary satisfies ok.
func waitForSession(t *testing.T, srv *Server, instance string, ok func(core.SessionInfo) bool) core.SessionInfo {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		for _, info := range srv.Sessions() {
			if info.Instance == instance && ok(info) {
				return info
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("session %s never reached the expected state: %+v", instance, srv.Sessions())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestServerWarmRestart is the end-to-end warm-restart contract: a client
// that taught the RM its operating points reconnects after an RM restart on
// the same state directory and finds its table and exploration stage back —
// no re-learning.
func TestServerWarmRestart(t *testing.T) {
	plat := platform.RaptorLake()
	stateDir := filepath.Join(t.TempDir(), "state")
	prof, err := workload.ByName(workload.IntelApps(), "ep.C")
	if err != nil {
		t.Fatal(err)
	}
	desc := offlineDescription(t, plat, prof)

	srv1, sock1 := startServer(t, ServerConfig{
		Platform: plat,
		StateDir: stateDir,
		Explore:  explore.Config{MeasurementsPerPoint: 1, StableAfter: 5},
	})
	if got := srv1.Generation(); got != 1 {
		t.Fatalf("first generation = %d, want 1", got)
	}
	c1, err := Dial(sock1, Registration{App: "ep.C", PID: 11, Adaptivity: Scalable})
	if err != nil {
		t.Fatal(err)
	}
	if err := c1.UploadDescription(bytes.NewReader(desc)); err != nil {
		t.Fatal(err)
	}
	if err := c1.NotifyPhase("solve"); err != nil {
		t.Fatal(err)
	}
	taught := waitForSession(t, srv1, "ep.C/11", func(info core.SessionInfo) bool {
		return info.Stage == explore.StageStable && info.Phase == "solve"
	})
	_ = c1.Close()
	if err := srv1.Close(); err != nil { // graceful: final snapshot
		t.Fatalf("Close: %v", err)
	}

	srv2, sock2 := startServer(t, ServerConfig{
		Platform: plat,
		StateDir: stateDir,
		Explore:  explore.Config{MeasurementsPerPoint: 1, StableAfter: 5},
	})
	if got := srv2.Generation(); got != 2 {
		t.Fatalf("second generation = %d, want 2", got)
	}
	rec, ok := srv2.StoreRecovery()
	if !ok || rec.ColdStart || !rec.SnapshotLoaded {
		t.Fatalf("recovery = %+v, want warm snapshot load", rec)
	}
	// The reconnecting client neither uploads nor measures: everything must
	// come from the replayed state.
	c2, err := Dial(sock2, Registration{App: "ep.C", PID: 11, Adaptivity: Scalable})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	resumed := waitForSession(t, srv2, "ep.C/11", func(info core.SessionInfo) bool {
		return info.Stage == explore.StageStable
	})
	if resumed.Measured < taught.Measured {
		t.Fatalf("resumed measured points = %d, want >= %d", resumed.Measured, taught.Measured)
	}
	// No phase assertion here: c1 exited cleanly, deregistering the session,
	// so its phase is rightly gone from the snapshot. Phase restoration
	// applies to *crashed* RMs whose sessions never deregistered — pinned by
	// the core-level warm-restart test and the harpd kill -9 chaos test.
}

// TestServerMaxSessions verifies over-cap registrations are rejected on the
// wire with the typed error's message and leave no state behind.
func TestServerMaxSessions(t *testing.T) {
	mt := telemetry.NewMetrics(telemetry.NewRegistry())
	srv, sock := startServer(t, ServerConfig{MaxSessions: 1, Metrics: mt})
	c1, err := Dial(sock, Registration{App: "a", PID: 1, Adaptivity: Scalable})
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	_, err = Dial(sock, Registration{App: "b", PID: 2, Adaptivity: Scalable})
	if !errors.Is(err, ErrRegistrationRejected) {
		t.Fatalf("over-cap Dial err = %v, want ErrRegistrationRejected", err)
	}
	if !strings.Contains(err.Error(), "session limit") {
		t.Fatalf("rejection does not carry the admission error: %v", err)
	}
	if got := mt.SessionsRejected.Value(); got != 1 {
		t.Fatalf("harp_sessions_rejected_total = %d, want 1", got)
	}
	if n := len(srv.Sessions()); n != 1 {
		t.Fatalf("sessions after rejection = %d, want 1", n)
	}
	// Freeing the slot readmits.
	_ = c1.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		c3, err := Dial(sock, Registration{App: "b", PID: 2, Adaptivity: Scalable})
		if err == nil {
			_ = c3.Close()
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("slot never freed: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestServerCloseSnapshotAfterLastEpoch pins graceful-shutdown ordering at
// the server level: after Close, the journal's final epoch is the snapshot
// epoch — nothing was journalled after the state was captured — and a
// reopened store replays the learned table without touching the WAL.
func TestServerCloseSnapshotAfterLastEpoch(t *testing.T) {
	plat := platform.RaptorLake()
	stateDir := filepath.Join(t.TempDir(), "state")
	var jbuf syncBuffer
	prof, err := workload.ByName(workload.IntelApps(), "ep.C")
	if err != nil {
		t.Fatal(err)
	}

	srv, sock := startServer(t, ServerConfig{
		Platform: plat,
		StateDir: stateDir,
		Journal:  telemetry.NewJournal(&jbuf),
		Sampler:  fixedSampler{utility: 80, power: 20},
	})
	c, err := Dial(sock, Registration{App: "ep.C", PID: 3, Adaptivity: Scalable})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.UploadDescription(bytes.NewReader(offlineDescription(t, plat, prof))); err != nil {
		t.Fatal(err)
	}
	waitForSession(t, srv, "ep.C/3", func(info core.SessionInfo) bool {
		return info.Measured > 0
	})
	closeWithin(t, srv, 5*time.Second)

	lines := strings.Split(strings.TrimSpace(jbuf.String()), "\n")
	last := lines[len(lines)-1]
	if !strings.Contains(last, `"trigger":"snapshot"`) {
		t.Fatalf("last journal epoch after Close is not the snapshot: %s", last)
	}

	st, err := store.Open(stateDir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	rec := st.Recovery()
	if !rec.SnapshotLoaded || rec.WALRecords != 0 {
		t.Fatalf("recovery after graceful close = %+v, want snapshot only", rec)
	}
	if st.RecoveredState().MeasuredPoints() == 0 {
		t.Fatal("graceful snapshot lost the learned table")
	}
}

// TestServerCloseRacesInFlightMeasure shuts the server down while the
// measure loop is actively feeding samples and a client is spamming utility
// reports — the shutdown path (final snapshot included) must be clean under
// the race detector and leave a loadable store.
func TestServerCloseRacesInFlightMeasure(t *testing.T) {
	stateDir := filepath.Join(t.TempDir(), "state")
	srv, sock := startServer(t, ServerConfig{
		StateDir:     stateDir,
		Sampler:      fixedSampler{utility: 80, power: 20},
		MeasureEvery: time.Millisecond,
	})
	c, err := Dial(sock, Registration{App: "racer", PID: 5, Adaptivity: Scalable, OwnUtility: true})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := c.ReportUtility(float64(i)); err != nil {
				return
			}
		}
	}()
	waitForSession(t, srv, "racer/5", func(info core.SessionInfo) bool {
		return info.Utility > 0
	})
	closeWithin(t, srv, 5*time.Second)
	close(stop)
	wg.Wait()

	st, err := store.Open(stateDir, store.Options{})
	if err != nil {
		t.Fatalf("store unusable after racy shutdown: %v", err)
	}
	defer st.Close()
	if st.Generation() != 2 {
		t.Fatalf("generation = %d, want 2", st.Generation())
	}
}

// TestServerEnergySurvivesRestart pins the energy ledger's durability
// contract: cumulative fleet joules are exported with the state, recovered
// into a fresh ledger at warm restart, and only ever grow — the restart
// re-anchors integration instead of inventing energy for the downtime or
// resetting the account to zero.
func TestServerEnergySurvivesRestart(t *testing.T) {
	stateDir := filepath.Join(t.TempDir(), "state")
	sampler := fixedSampler{utility: 80, power: 20}

	led1 := telemetry.NewEnergyLedger()
	srv1, sock1 := startServer(t, ServerConfig{
		StateDir:     stateDir,
		Sampler:      sampler,
		MeasureEvery: time.Millisecond,
		Energy:       led1,
	})
	c1, err := Dial(sock1, Registration{App: "joule", PID: 11, Adaptivity: Scalable})
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()

	deadline := time.Now().Add(5 * time.Second)
	for srv1.EnergyTotals().Joules == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no energy attributed despite a sampler feeding 20 W")
		}
		time.Sleep(5 * time.Millisecond)
	}
	before := srv1.EnergyTotals()
	// Conservation: the per-session rows plus the retired accumulator must
	// account for every fleet joule exactly (one lock guards both sides).
	var sum float64
	for _, se := range led1.Sessions() {
		sum += se.Joules
	}
	if diff := sum + before.RetiredJoules - before.Joules; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("energy conservation violated: sessions %.12f + retired %.12f != fleet %.12f",
			sum, before.RetiredJoules, before.Joules)
	}
	closeWithin(t, srv1, 5*time.Second)

	led2 := telemetry.NewEnergyLedger()
	srv2, sock2 := startServer(t, ServerConfig{
		StateDir:     stateDir,
		Sampler:      sampler,
		MeasureEvery: time.Millisecond,
		Energy:       led2,
	})
	recovered := srv2.EnergyTotals()
	if recovered.Joules < before.Joules {
		t.Fatalf("fleet joules shrank across restart: %.6f -> %.6f", before.Joules, recovered.Joules)
	}
	c2, err := Dial(sock2, Registration{App: "joule", PID: 11, Adaptivity: Scalable})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	deadline = time.Now().Add(5 * time.Second)
	for srv2.EnergyTotals().Joules <= recovered.Joules {
		if time.Now().After(deadline) {
			t.Fatalf("energy stopped accruing after restart (stuck at %.6f J)", recovered.Joules)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
