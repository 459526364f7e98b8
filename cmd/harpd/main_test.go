package main

import (
	"encoding/json"
	"go/parser"
	"go/token"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"github.com/harp-rm/harp/harp"
	"github.com/harp-rm/harp/internal/core"
	"github.com/harp-rm/harp/internal/platform"
	"github.com/harp-rm/harp/internal/telemetry"
)

// startDaemonPieces brings up the server + control listener the way main()
// does, on temp sockets.
func startDaemonPieces(t *testing.T) (appSock, ctlSock string) {
	t.Helper()
	dir := t.TempDir()
	appSock = filepath.Join(dir, "harp.sock")
	ctlSock = filepath.Join(dir, "ctl.sock")

	tracer := telemetry.NewTracer(0)
	srv, err := harp.NewServer(harp.ServerConfig{
		Platform:           platform.RaptorLake(),
		DisableExploration: true,
		Tracer:             tracer,
		Metrics:            telemetry.NewMetrics(telemetry.NewRegistry()),
		Energy:             telemetry.NewEnergyLedger(),
	})
	if err != nil {
		t.Fatal(err)
	}
	ctl, err := newControlListener(ctlSock, srv, tracer)
	if err != nil {
		t.Fatal(err)
	}
	go ctl.serve()
	go func() { _ = srv.ListenAndServe(appSock) }()
	t.Cleanup(func() {
		_ = ctl.Close()
		_ = srv.Close()
	})
	waitSock(t, appSock)
	waitSock(t, ctlSock)
	return appSock, ctlSock
}

func waitSock(t *testing.T, path string) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		conn, err := net.Dial("unix", path)
		if err == nil {
			conn.Close()
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("socket %s never came up", path)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// controlRequest sends req to the control socket and decodes the reply into
// a map of its top-level fields.
func controlRequest(t *testing.T, sock string, req map[string]string) map[string]json.RawMessage {
	t.Helper()
	var resp map[string]json.RawMessage
	control(t, sock, req, &resp)
	return resp
}

// control sends req to the control socket and decodes the reply into reply.
func control(t *testing.T, sock string, req map[string]string, reply any) {
	t.Helper()
	conn, err := net.Dial("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := json.NewEncoder(conn).Encode(req); err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(conn).Decode(reply); err != nil {
		t.Fatal(err)
	}
}

// controlStatus asks the control socket for the status document.
func controlStatus(t *testing.T, sock string) harp.Status {
	t.Helper()
	var st harp.Status
	control(t, sock, map[string]string{"op": "sessions"}, &st)
	if st.Schema != harp.StatusSchema {
		t.Fatalf("status schema = %d, want %d", st.Schema, harp.StatusSchema)
	}
	return st
}

func TestControlSessionsReflectsClients(t *testing.T) {
	appSock, ctlSock := startDaemonPieces(t)

	if st := controlStatus(t, ctlSock); len(st.Sessions) != 0 {
		t.Fatalf("sessions = %+v before any client", st.Sessions)
	}

	client, err := harp.Dial(appSock, harp.Registration{App: "x", PID: 5, Adaptivity: harp.Static})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	deadline := time.Now().Add(2 * time.Second)
	for {
		st := controlStatus(t, ctlSock)
		if len(st.Sessions) == 1 && st.Sessions[0].Instance == "x/5" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("sessions = %+v, want x/5", st.Sessions)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestControlSessionsReportsAllocCache(t *testing.T) {
	appSock, ctlSock := startDaemonPieces(t)

	if c := controlStatus(t, ctlSock).AllocCache; c == nil || c.Cap != 64 {
		t.Fatalf("alloc cache = %+v, want the default capacity 64", c)
	}

	client, err := harp.Dial(appSock, harp.Registration{App: "z", PID: 7, Adaptivity: harp.Scalable})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	deadline := time.Now().Add(2 * time.Second)
	for {
		src := controlStatus(t, ctlSock).SolveSource
		if src == "cold" || src == "warm" || src == "cached" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("solve_source = %q after a registration, want a solve source", src)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestControlTable(t *testing.T) {
	appSock, ctlSock := startDaemonPieces(t)
	client, err := harp.Dial(appSock, harp.Registration{App: "y", PID: 6, Adaptivity: harp.Scalable})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	resp := controlRequest(t, ctlSock, map[string]string{"op": "table", "instance": "y/6"})
	if _, ok := resp["table"]; !ok {
		t.Fatalf("table missing: %v", resp)
	}
	resp = controlRequest(t, ctlSock, map[string]string{"op": "table", "instance": "ghost"})
	if _, ok := resp["error"]; !ok {
		t.Fatalf("error missing for unknown instance: %v", resp)
	}
}

func TestControlUnknownOp(t *testing.T) {
	_, ctlSock := startDaemonPieces(t)
	resp := controlRequest(t, ctlSock, map[string]string{"op": "frobnicate"})
	if _, ok := resp["error"]; !ok {
		t.Fatalf("unknown op not rejected: %v", resp)
	}
}

func TestRunFlagValidation(t *testing.T) {
	if err := run([]string{"-platform", "does-not-exist"}); err == nil {
		t.Error("unknown platform accepted")
	}
}

func TestLivenessPolicyFlags(t *testing.T) {
	if p, err := livenessPolicy(false, 0, 0, 0); err != nil || p.Enabled() {
		t.Errorf("flags off: policy = %+v, err = %v, want disabled", p, err)
	}
	p, err := livenessPolicy(true, 0, 0, 0)
	if err != nil || p != core.DefaultLivenessPolicy() {
		t.Errorf("-liveness: policy = %+v, err = %v, want defaults", p, err)
	}
	p, err = livenessPolicy(false, 0, 0, 30*time.Second)
	if err != nil || p.ReapAfter != 30*time.Second || p.SuspectAfter != core.DefaultLivenessPolicy().SuspectAfter {
		t.Errorf("-reap-after alone: policy = %+v, err = %v, want defaults with 30s reap", p, err)
	}
	if _, err := livenessPolicy(false, 5*time.Second, time.Second, 0); err == nil {
		t.Error("suspect > quarantine accepted")
	}
}

func TestControlTrace(t *testing.T) {
	appSock, ctlSock := startDaemonPieces(t)
	client, err := harp.Dial(appSock, harp.Registration{App: "tr", PID: 7, Adaptivity: harp.Scalable})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	resp := controlRequest(t, ctlSock, map[string]string{"op": "trace"})
	var events []map[string]any
	if err := json.Unmarshal(resp["events"], &events); err != nil {
		t.Fatalf("events: %v (%s)", err, resp["events"])
	}
	if len(events) == 0 {
		t.Fatal("no events after a registration")
	}
	kinds := map[string]bool{}
	for _, ev := range events {
		kind, ok := ev["kind"].(string)
		if !ok {
			t.Fatalf("event kind not serialized as a string: %v", ev["kind"])
		}
		kinds[kind] = true
	}
	if !kinds["session-registered"] || !kinds["decision-pushed"] {
		t.Errorf("trace kinds %v, want registration and its decision", kinds)
	}
}

func TestTelemetryMuxEndpoints(t *testing.T) {
	registry := telemetry.NewRegistry()
	srv, err := harp.NewServer(harp.ServerConfig{
		Platform:           platform.RaptorLake(),
		DisableExploration: true,
		Metrics:            telemetry.NewMetrics(registry),
	})
	if err != nil {
		t.Fatal(err)
	}
	appSock := filepath.Join(t.TempDir(), "harp.sock")
	go func() { _ = srv.ListenAndServe(appSock) }()
	t.Cleanup(func() { _ = srv.Close() })
	waitSock(t, appSock)
	client, err := harp.Dial(appSock, harp.Registration{App: "m", PID: 8, Adaptivity: harp.Static})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	ts := httptest.NewServer(telemetryMux(registry, srv))
	defer ts.Close()

	get := func(path string) string {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s = %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}

	if body := get("/metrics"); !strings.Contains(body, "harp_sessions") ||
		!strings.Contains(body, "# TYPE harp_decisions_total counter") {
		t.Errorf("/metrics incomplete:\n%s", body)
	}
	if body := get("/debug/vars"); !strings.Contains(body, "harp") {
		t.Errorf("/debug/vars missing registry:\n%s", body)
	}
	if body := get("/debug/pprof/"); !strings.Contains(body, "goroutine") {
		t.Errorf("/debug/pprof/ index incomplete:\n%s", body)
	}

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /healthz = %d on a healthy daemon", resp.StatusCode)
	}
	var rep harp.HealthReport
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	if rep.Status != harp.HealthOK && rep.Status != harp.HealthDegraded {
		t.Errorf("health status = %q, want ok or degraded on a fresh daemon", rep.Status)
	}
	names := map[string]bool{}
	for _, c := range rep.Checks {
		names[c.Name] = true
	}
	for _, want := range []string{"measure-jitter", "journal", "tracer", "sessions", "epochs", "store", "store-durability", "budget"} {
		if !names[want] {
			t.Errorf("/healthz missing check %q: %+v", want, rep.Checks)
		}
	}
}

// TestControlHealthAndEnergy exercises the health op and the energy block of
// the sessions op over the control socket — the surfaces harpctl health and
// harpctl top render.
func TestControlHealthAndEnergy(t *testing.T) {
	appSock, ctlSock := startDaemonPieces(t)
	client, err := harp.Dial(appSock, harp.Registration{App: "he", PID: 9, Adaptivity: harp.Scalable})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	resp := controlRequest(t, ctlSock, map[string]string{"op": "health"})
	var rep harp.HealthReport
	if err := json.Unmarshal(resp["health"], &rep); err != nil {
		t.Fatalf("health: %v (%s)", err, resp["health"])
	}
	if rep.Status == "" || len(rep.Checks) == 0 {
		t.Fatalf("empty health report: %+v", rep)
	}

	st := controlStatus(t, ctlSock)
	if len(st.Sessions) != 1 || st.Sessions[0].Liveness != "live" {
		t.Fatalf("sessions = %+v, want he/9 live", st.Sessions)
	}
	if st.FleetJoules < 0 || st.EpochP99Sec < 0 {
		t.Fatalf("energy/latency fields = %.3f J, %.6f s", st.FleetJoules, st.EpochP99Sec)
	}
}

// TestUsageNamesEveryFlag: the usage block of the package doc names exactly
// the flags run registers, so neither can drift from the other.
func TestUsageNamesEveryFlag(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "main.go", nil, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	_, block, ok := strings.Cut(f.Doc.Text(), "Usage:\n\n")
	if !ok {
		t.Fatal("package doc has no usage block")
	}
	documented := map[string]bool{}
	flagRef := regexp.MustCompile(`(?:^|[\s\[])-([a-z][a-z-]*)`)
	for _, line := range strings.Split(block, "\n") {
		if !strings.HasPrefix(line, "\t") {
			break // the block is the indented run after "Usage:"
		}
		for _, m := range flagRef.FindAllStringSubmatch(line, -1) {
			documented[m[1]] = true
		}
	}

	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	registered := map[string]bool{}
	for _, m := range regexp.MustCompile(`fs\.\w+\("([a-z-]+)"`).FindAllSubmatch(src, -1) {
		registered[string(m[1])] = true
	}
	if len(registered) == 0 {
		t.Fatal("found no registered flags in main.go")
	}
	for name := range registered {
		if !documented[name] {
			t.Errorf("flag -%s is registered but not in the usage block", name)
		}
	}
	for name := range documented {
		if !registered[name] {
			t.Errorf("usage block names -%s, which run does not register", name)
		}
	}
}
