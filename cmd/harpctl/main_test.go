package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"net"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/harp-rm/harp/harp"
	"github.com/harp-rm/harp/internal/core"
	"github.com/harp-rm/harp/internal/opoint"
	"github.com/harp-rm/harp/internal/telemetry"
)

// fakeStatus is the status document the fake daemon serves.
var fakeStatus = harp.Status{
	Schema:         harp.StatusSchema,
	Generation:     3,
	UptimeSec:      125,
	SolveSource:    "cached",
	JournalError:   "disk full",
	TracerDropped:  7,
	DegradedRung:   "degraded-greedy",
	LastEpochError: "core: solver stalled past its deadline budget",
	StoreDegraded:  true,
	AllocCache: &harp.CacheStatus{
		Size: 2, Cap: 64, Hits: 17, Misses: 3, Evictions: 1, HitRate: 0.85,
	},
	FleetPowerW:      37.5,
	BudgetW:          60,
	EpochP99Sec:      0.0021,
	FleetJoules:      120.5,
	BudgetOverrunSec: 0,
	CoAllocatedShare: 0.5,
	Sessions: []harp.SessionStatus{{
		Instance: "ep.C/1", App: "ep.C", Stage: "stable",
		Liveness: core.LivenessLive.String(), AgeSec: 0.2,
		Utility: 123.4, PowerW: 37.5, Vector: "P6", Threads: 6, Cores: 3,
		Joules: 120.5, Efficiency: 7.469,
	}, {
		Instance: "cg.C/2", App: "cg.C", Stage: "stable",
		Liveness: core.LivenessQuarantined.String(), AgeSec: 4.8,
		CoAllocated: true,
	}},
}

// fakeHarpd answers control requests the way harpd's control listener does,
// with the same typed documents.
func fakeHarpd(t *testing.T) string {
	t.Helper()
	sock := filepath.Join(t.TempDir(), "ctl.sock")
	ln, err := net.Listen("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				var req struct {
					Op       string `json:"op"`
					Instance string `json:"instance"`
					N        int    `json:"n"`
				}
				if err := json.NewDecoder(conn).Decode(&req); err != nil {
					return
				}
				enc := json.NewEncoder(conn)
				switch req.Op {
				case "sessions":
					_ = enc.Encode(fakeStatus)
				case "trace":
					_ = enc.Encode(map[string]any{
						"events": []telemetry.Event{{
							At: 1500 * time.Millisecond, Kind: telemetry.EvDecisionPushed,
							Instance: "ep.C/1", Vector: "P6", Seq: 3,
						}},
						"total": 42, "dropped": 2,
					})
				case "table":
					if req.Instance == "ghost" {
						_ = enc.Encode(map[string]string{"error": "core: unknown session: ghost"})
						return
					}
					_ = enc.Encode(map[string]any{"table": &opoint.Table{App: req.Instance}})
				case "health":
					_ = enc.Encode(map[string]any{"health": harp.HealthReport{
						Status: harp.HealthDegraded,
						Checks: []harp.HealthCheck{
							{Name: "measure-jitter", Status: harp.HealthOK, Detail: "p99 0.4ms"},
							{Name: "tracer", Status: harp.HealthDegraded, Detail: "7 events evicted from the ring"},
						},
					}})
				default:
					_ = enc.Encode(map[string]string{"error": "unknown op " + req.Op})
				}
			}()
		}
	}()
	return sock
}

func TestSessionsCommand(t *testing.T) {
	sock := fakeHarpd(t)
	var buf bytes.Buffer
	if err := run([]string{"-control", sock, "sessions"}, &buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"instance": "ep.C/1"`, `"liveness": "quarantined"`, `"joules": 120.5`} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("sessions dump missing %s:\n%s", want, buf.String())
		}
	}
}

func TestTableCommand(t *testing.T) {
	sock := fakeHarpd(t)
	var buf bytes.Buffer
	if err := run([]string{"-control", sock, "table", "ep.C/1"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "table") {
		t.Errorf("output missing table: %s", buf.String())
	}
}

func TestServerErrorSurfaces(t *testing.T) {
	sock := fakeHarpd(t)
	var buf bytes.Buffer
	err := run([]string{"-control", sock, "table", "ghost"}, &buf)
	if err == nil || err.Error() != "harpd: core: unknown session: ghost" {
		t.Errorf("err = %v, want the daemon's message unquoted", err)
	}
}

func TestStatusCommand(t *testing.T) {
	sock := fakeHarpd(t)
	var buf bytes.Buffer
	if err := run([]string{"-control", sock, "status"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"rm generation 3, up 2m5s",
		"INSTANCE", "UTILITY", "LIVENESS", "AGE",
		"ep.C/1", "stable", "123.4", "37.5", "P6", "0.2s",
		"cg.C/2", "quarantined", "4.8s",
		"alloc cache 2/64, hit rate 85.0% (17 hits, 3 misses, 1 evictions), last solve cached",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("status output missing %q:\n%s", want, out)
		}
	}
}

// TestStatusShowsCoAllocatedShare: the status header says how much of the
// population shares cores, so an overloaded machine reads as one.
func TestStatusShowsCoAllocatedShare(t *testing.T) {
	sock := fakeHarpd(t)
	var buf bytes.Buffer
	if err := run([]string{"-control", sock, "status"}, &buf); err != nil {
		t.Fatal(err)
	}
	if want := "co-allocated 50.0% of 2 sessions"; !strings.Contains(buf.String(), want) {
		t.Errorf("status output missing %q:\n%s", want, buf.String())
	}
}

// TestStatusShowsTelemetryHealth pins the sticky journal error and the
// tracer eviction count onto the status output.
func TestStatusShowsTelemetryHealth(t *testing.T) {
	sock := fakeHarpd(t)
	var buf bytes.Buffer
	if err := run([]string{"-control", sock, "status"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"journal ERROR: disk full",
		"tracer dropped 7 events",
		"last epoch DEGRADED via degraded-greedy",
		"last epoch error: core: solver stalled past its deadline budget",
		"store DEGRADED: write retries exhausted, snapshots suspended",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("status output missing %q:\n%s", want, out)
		}
	}
}

func TestHealthCommand(t *testing.T) {
	sock := fakeHarpd(t)
	var buf bytes.Buffer
	if err := run([]string{"-control", sock, "health"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"status: degraded",
		"measure-jitter  ok",
		"tracer          degraded  (7 events evicted from the ring)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("health output missing %q:\n%s", want, out)
		}
	}
}

// TestHealthUnhealthyFailsCommand: an unhealthy report makes the command
// itself fail, so scripts can gate on the exit code.
func TestHealthUnhealthyFailsCommand(t *testing.T) {
	var buf bytes.Buffer
	err := renderHealth(&buf, harp.HealthReport{Status: harp.HealthUnhealthy}, false)
	if err == nil {
		t.Fatal("unhealthy report did not fail the command")
	}
	if !strings.Contains(buf.String(), "status: unhealthy") {
		t.Errorf("report not printed before failing:\n%s", buf.String())
	}
}

// TestHealthExitCode maps the health grade onto the exit status with
// -exit-code: 0 ok, 1 degraded, 2 unhealthy. The fake daemon reports
// degraded, so the command fails with the code-1 sentinel.
func TestHealthExitCode(t *testing.T) {
	sock := fakeHarpd(t)
	var buf bytes.Buffer
	err := run([]string{"-control", sock, "health", "-exit-code"}, &buf)
	var ee exitError
	if !errors.As(err, &ee) || ee.code != 1 {
		t.Fatalf("health -exit-code on a degraded daemon: err = %v, want exit code 1", err)
	}
	if !strings.Contains(buf.String(), "status: degraded") {
		t.Errorf("report not printed before exiting:\n%s", buf.String())
	}

	// The grade-to-code map, exercised directly for all three grades.
	for _, tc := range []struct {
		status harp.HealthStatus
		code   int
	}{{harp.HealthOK, 0}, {harp.HealthDegraded, 1}, {harp.HealthUnhealthy, 2}} {
		err := renderHealth(&bytes.Buffer{}, harp.HealthReport{Status: tc.status}, true)
		if tc.code == 0 {
			if err != nil {
				t.Errorf("status %s: err = %v, want nil", tc.status, err)
			}
			continue
		}
		var ee exitError
		if !errors.As(err, &ee) || ee.code != tc.code {
			t.Errorf("status %s: err = %v, want exit code %d", tc.status, err, tc.code)
		}
	}
}

func TestTopCommand(t *testing.T) {
	sock := fakeHarpd(t)
	var buf bytes.Buffer
	if err := run([]string{"-control", sock, "top", "-n", "1", "-interval", "10ms"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"harp top — up 2m5s, 2 sessions",
		"power 37.5W / budget 60.0W (headroom 22.5W, overrun 0.0s)  fleet 120.5J",
		"epoch p99 2.10ms, cache hit rate 85.0%, last solve cached, tracer dropped 7",
		"journal ERROR: disk full",
		"DEGRADED: last epoch via degraded-greedy",
		"store DEGRADED: snapshots suspended",
		"ENERGY[J]", "EFF[u/J]",
		"ep.C/1", "120.5", "7.469",
		"cg.C/2", "quarantined",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("top output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "\x1b[2J") {
		t.Error("single-frame top cleared the screen")
	}
}

// TestTopRefreshClearsScreen: a second frame starts with the ANSI
// clear+home sequence so the view refreshes in place.
func TestTopRefreshClearsScreen(t *testing.T) {
	sock := fakeHarpd(t)
	var buf bytes.Buffer
	if err := run([]string{"-control", sock, "top", "-n", "2", "-interval", "1ms"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "\x1b[2J\x1b[H") {
		t.Error("second top frame did not clear the screen")
	}
}

func TestTopFlagValidation(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"top", "-interval", "0s", "-n", "1"}, &buf); err == nil {
		t.Error("top accepted a non-positive interval")
	}
}

// TestStatusWithoutLivenessTracking renders "-" for the report age when the
// daemon does not track liveness (it sends a negative age).
func TestStatusWithoutLivenessTracking(t *testing.T) {
	if got := ageLabel(-1); got != "-" {
		t.Errorf("ageLabel(-1) = %q, want -", got)
	}
	if got := ageLabel(1.25); got != "1.2s" {
		t.Errorf("ageLabel(1.25) = %q, want 1.2s", got)
	}
}

func TestTraceTailCommand(t *testing.T) {
	sock := fakeHarpd(t)
	var buf bytes.Buffer
	if err := run([]string{"-control", sock, "trace", "tail", "5"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"decision-pushed", "ep.C/1", "vector=P6", "seq=3", "42 emitted", "2 evicted"} {
		if !strings.Contains(out, want) {
			t.Errorf("trace tail output missing %q:\n%s", want, out)
		}
	}
}

func TestTraceDumpCommand(t *testing.T) {
	sock := fakeHarpd(t)
	var buf bytes.Buffer
	if err := run([]string{"-control", sock, "trace", "dump"}, &buf); err != nil {
		t.Fatal(err)
	}
	var resp map[string]json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &resp); err != nil {
		t.Fatalf("dump is not JSON: %v\n%s", err, buf.String())
	}
	if _, ok := resp["events"]; !ok {
		t.Errorf("dump missing events: %s", buf.String())
	}
}

func TestUsageErrors(t *testing.T) {
	var buf bytes.Buffer
	tests := [][]string{
		nil,
		{"unknown-cmd"},
		{"table"},                 // missing instance
		{"trace"},                 // missing subcommand
		{"trace", "rewind"},       // unknown subcommand
		{"trace", "tail", "zero"}, // bad count
		{"trace", "tail", "-3"},   // bad count
	}
	for _, args := range tests {
		if err := run(args, &buf); err == nil {
			t.Errorf("run(%v) accepted", args)
		}
	}
}

func TestMissingDaemon(t *testing.T) {
	var buf bytes.Buffer
	sock := filepath.Join(t.TempDir(), "absent.sock")
	if err := run([]string{"-control", sock, "sessions"}, &buf); err == nil {
		t.Error("missing daemon not reported")
	}
}
