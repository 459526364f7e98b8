package harp

import (
	"bytes"
	"net"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"github.com/harp-rm/harp/internal/core"
	"github.com/harp-rm/harp/internal/platform"
	"github.com/harp-rm/harp/internal/proto"
	"github.com/harp-rm/harp/internal/telemetry"
	"github.com/harp-rm/harp/internal/workload"
)

// rawRegister opens a bare protocol connection and registers, bypassing the
// Client so the test controls (or withholds) every subsequent message.
func rawRegister(t *testing.T, sock, app string, pid int) net.Conn {
	t.Helper()
	conn, err := net.Dial("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	if err := proto.Write(conn, proto.MsgRegister, proto.Register{
		PID: pid, App: app, Adaptivity: "static",
	}); err != nil {
		t.Fatal(err)
	}
	env, err := proto.Read(conn)
	if err != nil {
		t.Fatal(err)
	}
	var ack proto.RegisterAck
	if err := proto.DecodeBody(env, proto.MsgRegisterAck, &ack); err != nil || !ack.OK {
		t.Fatalf("registration rejected: %+v (%v)", ack, err)
	}
	return conn
}

// A client that dies without Close() — here, a connection that simply goes
// silent while staying open, so the reader never sees EOF — must be
// collected by the liveness reaper, passing through quarantine on the way.
func TestReaperCollectsSilentClient(t *testing.T) {
	mt := telemetry.NewMetrics(telemetry.NewRegistry())
	srv, sock := startServer(t, ServerConfig{
		Metrics: mt,
		Liveness: core.LivenessPolicy{
			SuspectAfter:    30 * time.Millisecond,
			QuarantineAfter: 60 * time.Millisecond,
			ReapAfter:       300 * time.Millisecond,
		},
	}, measureEvery(10*time.Millisecond))
	conn := rawRegister(t, sock, "silent", 100)
	defer conn.Close() // stays open for the whole test: EOF never fires

	if got := len(srv.Sessions()); got != 1 {
		t.Fatalf("sessions = %d, want 1", got)
	}
	deadline := time.Now().Add(3 * time.Second)
	for len(srv.Sessions()) != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("silent session never reaped: %+v", srv.Sessions())
		}
		time.Sleep(10 * time.Millisecond)
	}
	if got := mt.SessionsReaped.Value(); got != 1 {
		t.Errorf("sessions reaped = %d, want 1", got)
	}
	if got := mt.SessionsQuarantined.Value(); got < 1 {
		t.Errorf("session never quarantined before the reap (counter = %d)", got)
	}
	if got := mt.SessionsLive.Value(); got != 0 {
		t.Errorf("live gauge = %v, want 0", got)
	}
}

// An idle but healthy client survives the reaper: the RM's liveness ping is
// answered by libharp's automatic pong, refreshing the silence clock.
func TestIdleClientSurvivesViaHeartbeat(t *testing.T) {
	mt := telemetry.NewMetrics(telemetry.NewRegistry())
	srv, sock := startServer(t, ServerConfig{
		Metrics: mt,
		Liveness: core.LivenessPolicy{
			SuspectAfter:    50 * time.Millisecond,
			QuarantineAfter: 300 * time.Millisecond,
			ReapAfter:       time.Second,
		},
	}, measureEvery(10*time.Millisecond))
	client, err := Dial(sock, Registration{App: "idle", PID: 101, Adaptivity: Static})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	// Long enough for several suspect → ping → pong → readmit cycles.
	time.Sleep(500 * time.Millisecond)
	if got := len(srv.Sessions()); got != 1 {
		t.Fatalf("idle client lost its session: %d sessions", got)
	}
	if got := mt.SessionsReaped.Value(); got != 0 {
		t.Errorf("idle client reaped %d times", got)
	}
}

// A failed write (decision push, utility poll or ping) marks the session
// suspect immediately and three strikes reap it ahead of the silence
// deadline — the regression was measureOnce dropping the poll error on the
// floor. net.Pipe makes the write failure deterministic: the reader half is
// closed mid-"poll" and the very next write errors out.
func TestWriteFailureEscalatesToReap(t *testing.T) {
	mt := telemetry.NewMetrics(telemetry.NewRegistry())
	srv, err := NewServer(ServerConfig{
		Platform:           platform.RaptorLake(),
		DisableExploration: true,
		Metrics:            mt,
		Liveness:           core.DefaultLivenessPolicy(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	peer, rmSide := net.Pipe()
	const instance = "piped/1"
	sess := &serverSession{instance: instance, pid: 1, conn: rmSide, lastSeen: time.Now()}
	srv.mu.Lock()
	srv.addSessionLocked(instance, sess)
	if err := srv.mgr.Register(instance, "piped", workload.Static, false); err != nil {
		srv.mu.Unlock()
		t.Fatal(err)
	}
	srv.mu.Unlock()
	sess.mu.Lock()
	sess.ready = true
	sess.mu.Unlock()

	peer.Close() // the client dies mid-poll: the next write must fail

	sess.mu.Lock()
	pollErr := srv.writeLocked(sess, proto.MsgUtilityRequest, nil)
	fails, forced := sess.probeFails, sess.forceSuspect
	sess.mu.Unlock()
	if pollErr == nil {
		t.Fatal("write to a dead peer succeeded")
	}
	if fails != 1 || !forced {
		t.Fatalf("poll failure not recorded: probeFails=%d forceSuspect=%v", fails, forced)
	}
	if got := mt.WriteTimeouts.Value(); got != 1 {
		t.Errorf("write-timeout counter = %d, want 1", got)
	}

	// The first sweep pins the session suspect ("write-failed") and its ping
	// probe also fails; within maxProbeFailures sweeps the session is reaped
	// even though its silence deadlines are nowhere near due.
	for i := 0; i < maxProbeFailures && len(srv.Sessions()) > 0; i++ {
		srv.livenessSweep()
	}
	if got := len(srv.Sessions()); got != 0 {
		t.Fatalf("broken-pipe session survived %d sweeps", maxProbeFailures)
	}
	if got := mt.SessionsReaped.Value(); got != 1 {
		t.Errorf("sessions reaped = %d, want 1", got)
	}
}

// Satellite regression: Close on a session whose RM is already gone must
// not surface the failed MsgExit write as an error — a graceful close of a
// dead session is still a success.
func TestCloseAfterServerGone(t *testing.T) {
	srv, err := NewServer(ServerConfig{Platform: platform.RaptorLake(), DisableExploration: true})
	if err != nil {
		t.Fatal(err)
	}
	sock := filepath.Join(t.TempDir(), "harp.sock")
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe(sock) }()
	waitSocket(t, sock)

	client, err := Dial(sock, Registration{App: "orphan", PID: 102, Adaptivity: Static})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	select {
	case <-client.Done():
	case <-time.After(2 * time.Second):
		t.Fatal("client did not notice the server going away")
	}
	if client.Err() == nil {
		t.Error("Err() = nil for a session the RM abandoned")
	}
	if err := client.Close(); err != nil {
		t.Errorf("Close after server shutdown = %v, want nil", err)
	}
	if err := client.Close(); err != nil {
		t.Errorf("second Close = %v, want nil", err)
	}
}

// waitSocket blocks until the RM socket accepts connections.
func waitSocket(t *testing.T, sock string) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		conn, err := net.Dial("unix", sock)
		if err == nil {
			conn.Close()
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("server did not come up")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// Acceptance: an auto-reconnect client resumes its session across a full
// server restart — re-registering, re-uploading its operating-point table
// and replaying its phase — with user code seeing nothing but a fresh
// Activation.
func TestReconnectAcrossServerRestart(t *testing.T) {
	plat := platform.RaptorLake()
	sock := filepath.Join(t.TempDir(), "harp.sock")
	newRM := func() (*Server, chan error) {
		srv, err := NewServer(ServerConfig{Platform: plat, DisableExploration: true})
		if err != nil {
			t.Fatal(err)
		}
		errc := make(chan error, 1)
		go func() { errc <- srv.ListenAndServe(sock) }()
		waitSocket(t, sock)
		return srv, errc
	}

	srv1, errc1 := newRM()
	var activations int32
	client, err := Dial(sock, Registration{
		App:        "mg.C",
		PID:        21,
		Adaptivity: Scalable,
		OnActivate: func(Activation) { atomic.AddInt32(&activations, 1) },
		Reconnect: ReconnectConfig{
			Enabled:        true,
			InitialBackoff: 20 * time.Millisecond,
			MaxBackoff:     100 * time.Millisecond,
			Seed:           1,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	prof, err := workload.ByName(workload.IntelApps(), "mg.C")
	if err != nil {
		t.Fatal(err)
	}
	desc := offlineDescription(t, plat, prof)
	if err := client.UploadDescription(bytes.NewReader(desc)); err != nil {
		t.Fatal(err)
	}
	if err := client.NotifyPhase("steady"); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		infos := srv1.Sessions()
		if len(infos) == 1 && infos[0].Phase == "steady" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("session state never landed on the first RM: %+v", infos)
		}
		time.Sleep(5 * time.Millisecond)
	}
	preRestart := atomic.LoadInt32(&activations)
	if preRestart == 0 {
		t.Fatal("no activation before the restart")
	}

	// Restart the RM on the same socket.
	if err := srv1.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-errc1; err != nil {
		t.Fatal(err)
	}
	srv2, errc2 := newRM()
	defer func() {
		if err := srv2.Close(); err != nil {
			t.Error(err)
		}
		if err := <-errc2; err != nil {
			t.Error(err)
		}
	}()

	// The client re-registers and replays its table and phase on its own.
	deadline = time.Now().Add(5 * time.Second)
	for {
		infos := srv2.Sessions()
		if len(infos) == 1 && infos[0].Instance == "mg.C/21" && infos[0].Phase == "steady" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("session did not resume on the restarted RM: %+v", infos)
		}
		time.Sleep(10 * time.Millisecond)
	}
	tbl, err := srv2.TableSnapshot("mg.C/21")
	if err != nil {
		t.Fatal(err)
	}
	if tbl.MeasuredCount() == 0 {
		t.Error("operating-point table not re-uploaded after reconnect")
	}

	// User code only notices a fresh Activation — the session never ended.
	deadline = time.Now().Add(2 * time.Second)
	for atomic.LoadInt32(&activations) <= preRestart {
		if time.Now().After(deadline) {
			t.Fatal("no activation after the reconnect")
		}
		time.Sleep(10 * time.Millisecond)
	}
	select {
	case <-client.Done():
		t.Fatalf("client terminated across the restart: %v", client.Err())
	default:
	}
	if err := client.ReportUtility(1); err != nil {
		t.Errorf("resumed client cannot report: %v", err)
	}
}
