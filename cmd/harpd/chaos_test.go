package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"github.com/harp-rm/harp/harp"
	"github.com/harp-rm/harp/internal/opoint"
	"github.com/harp-rm/harp/internal/platform"
	"github.com/harp-rm/harp/internal/store"
	"github.com/harp-rm/harp/internal/workload"
)

// buildHarpd compiles the daemon into a temp dir and returns the binary path.
func buildHarpd(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "harpd")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build harpd: %v\n%s", err, out)
	}
	return bin
}

// harpdProc is one running daemon child process.
type harpdProc struct {
	cmd *exec.Cmd
	out *bytes.Buffer
}

// startHarpd launches the daemon binary against the given sockets and state
// directory and waits for both sockets to come up.
func startHarpd(t *testing.T, bin, appSock, ctlSock, stateDir string) *harpdProc {
	t.Helper()
	var out bytes.Buffer
	cmd := exec.Command(bin,
		"-platform", "intel",
		"-socket", appSock,
		"-control", ctlSock,
		"-state-dir", stateDir,
	)
	cmd.Stdout = &out
	cmd.Stderr = &out
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	p := &harpdProc{cmd: cmd, out: &out}
	t.Cleanup(func() {
		if cmd.ProcessState == nil {
			_ = cmd.Process.Kill()
			_, _ = cmd.Process.Wait()
		}
	})
	waitSock(t, appSock)
	waitSock(t, ctlSock)
	return p
}

// kill9 delivers SIGKILL — no shutdown hook, no final snapshot — and reaps
// the child.
func (p *harpdProc) kill9(t *testing.T) {
	t.Helper()
	if err := p.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	_ = p.cmd.Wait() // exit status is the kill signal; only reaping matters
}

// terminate sends SIGTERM and waits for the graceful-shutdown path to run.
func (p *harpdProc) terminate(t *testing.T) {
	t.Helper()
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- p.cmd.Wait() }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		_ = p.cmd.Process.Kill()
		t.Fatalf("harpd did not exit on SIGTERM; output:\n%s", p.out.String())
	}
}

// fullDescription serialises the complete offline design-space sweep for one
// profile: enough measured points that the session is stable on upload
// (StableAfter caps at the space size).
func fullDescription(t *testing.T, plat *platform.Platform, prof *workload.Profile) []byte {
	t.Helper()
	tbl := &opoint.Table{App: prof.Name, Platform: plat.Name}
	for _, rv := range platform.EnumerateVectors(plat, 0) {
		ev := workload.EvaluateVector(plat, prof, rv)
		tbl.Upsert(opoint.OperatingPoint{Vector: rv, Utility: ev.Utility, Power: ev.PowerWatts})
	}
	var buf bytes.Buffer
	if err := tbl.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// daemonState asks the control socket for the session list plus the RM
// generation.
func daemonState(t *testing.T, ctlSock string) (sessions []harp.SessionStatus, generation uint64) {
	t.Helper()
	st := controlStatus(t, ctlSock)
	return st.Sessions, st.Generation
}

// waitForDaemonSession polls the control socket until the instance satisfies
// ok.
func waitForDaemonSession(t *testing.T, ctlSock, instance string, ok func(harp.SessionStatus) bool) harp.SessionStatus {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	var last []harp.SessionStatus
	for {
		sessions, _ := daemonState(t, ctlSock)
		for _, s := range sessions {
			if s.Instance == instance && ok(s) {
				return s
			}
		}
		last = sessions
		if time.Now().After(deadline) {
			t.Fatalf("session %s never reached the wanted state; last view: %+v", instance, last)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// preserveStateDir copies the state directory to $HARP_CHAOS_ARTIFACTS when
// the test fails, so CI can upload the snapshot + WAL that broke recovery.
func preserveStateDir(t *testing.T, stateDir string) {
	t.Cleanup(func() {
		dst := os.Getenv("HARP_CHAOS_ARTIFACTS")
		if !t.Failed() || dst == "" {
			return
		}
		target := filepath.Join(dst, t.Name())
		if err := os.MkdirAll(target, 0o755); err != nil {
			t.Logf("preserve state dir: %v", err)
			return
		}
		if err := os.CopyFS(target, os.DirFS(stateDir)); err != nil {
			t.Logf("preserve state dir: %v", err)
			return
		}
		t.Logf("state dir preserved in %s", target)
	})
}

// Acceptance: kill -9 the daemon mid-run, restart it with the same
// -state-dir, and a reconnecting client resumes its learned table at the
// prior exploration stage — stable, with the measured points and announced
// phase it had before the crash, without re-uploading anything. A final
// SIGTERM then exercises the graceful path: the store ends with a fresh
// snapshot and an empty WAL.
func TestHarpdKill9WarmRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and kills a real daemon process")
	}
	bin := buildHarpd(t)
	dir := t.TempDir()
	appSock := filepath.Join(dir, "harp.sock")
	ctlSock := filepath.Join(dir, "ctl.sock")
	stateDir := filepath.Join(dir, "state")
	preserveStateDir(t, stateDir)

	plat := platform.RaptorLake()
	prof, err := workload.ByName(workload.IntelApps(), "ep.C")
	if err != nil {
		t.Fatal(err)
	}
	desc := fullDescription(t, plat, prof)

	// Generation 1: teach the daemon a full table and announce a phase.
	gen1 := startHarpd(t, bin, appSock, ctlSock, stateDir)
	c1, err := harp.Dial(appSock, harp.Registration{App: "ep.C", PID: 41, Adaptivity: harp.Scalable})
	if err != nil {
		t.Fatalf("dial generation 1: %v\n%s", err, gen1.out.String())
	}
	defer c1.Close()
	if err := c1.UploadDescription(bytes.NewReader(desc)); err != nil {
		t.Fatal(err)
	}
	if err := c1.NotifyPhase("solve"); err != nil {
		t.Fatal(err)
	}
	taught := waitForDaemonSession(t, ctlSock, "ep.C/41", func(s harp.SessionStatus) bool {
		return s.Stage == "stable" && s.Phase == "solve"
	})
	if _, gen := daemonState(t, ctlSock); gen != 1 {
		t.Fatalf("generation = %d, want 1", gen)
	}
	energyBefore := controlStatus(t, ctlSock).FleetJoules

	// The crash: no exit message, no final snapshot — recovery must come
	// from the boot checkpoint and the WAL alone.
	gen1.kill9(t)

	// Generation 2: same state dir, fresh process.
	gen2 := startHarpd(t, bin, appSock, ctlSock, stateDir)
	c2, err := harp.Dial(appSock, harp.Registration{App: "ep.C", PID: 41, Adaptivity: harp.Scalable})
	if err != nil {
		t.Fatalf("dial generation 2: %v\n%s", err, gen2.out.String())
	}
	defer c2.Close()
	resumed := waitForDaemonSession(t, ctlSock, "ep.C/41", func(s harp.SessionStatus) bool {
		return s.Stage == "stable"
	})
	if resumed.Measured < taught.Measured {
		t.Fatalf("resumed with %d measured points, want >= %d", resumed.Measured, taught.Measured)
	}
	if resumed.Phase != "solve" {
		t.Fatalf("resumed phase = %q, want the pre-crash phase restored", resumed.Phase)
	}
	if _, gen := daemonState(t, ctlSock); gen != 2 {
		t.Fatalf("generation after kill -9 restart = %d, want 2", gen)
	}
	// The joule account is monotone across the crash: the recovered ledger
	// resumes from the journalled accumulators, never from zero below them.
	if energyAfter := controlStatus(t, ctlSock).FleetJoules; energyAfter < energyBefore {
		t.Fatalf("fleet joules shrank across kill -9: %.6f -> %.6f", energyBefore, energyAfter)
	}

	// Graceful end: SIGTERM must leave a final snapshot and a rotated WAL.
	if err := c2.Close(); err != nil {
		t.Fatal(err)
	}
	gen2.terminate(t)
	st, err := store.Open(stateDir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	rec := st.Recovery()
	if rec.ColdStart || !rec.SnapshotLoaded {
		t.Fatalf("post-SIGTERM recovery = %+v, want a warm snapshot", rec)
	}
	if rec.WALRecords != 0 {
		t.Fatalf("post-SIGTERM WAL held %d records, want 0 after the final snapshot", rec.WALRecords)
	}
	if st.Generation() != 3 {
		t.Fatalf("generation = %d, want 3 (two daemon boots + this open)", st.Generation())
	}
	measured := 0
	for _, tbl := range st.RecoveredState().Tables {
		measured += tbl.MeasuredCount()
	}
	if measured == 0 {
		t.Fatal("final snapshot lost the learned operating points")
	}
}
