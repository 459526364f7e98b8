package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"path/filepath"
	"strings"
	"testing"

	"github.com/harp-rm/harp/harp"
)

// TestStatusJSONStableFields pins the `status -json` contract: schema
// marker plus the documented field set, decoded from the document itself
// so renames fail loudly.
func TestStatusJSONStableFields(t *testing.T) {
	sock := fakeHarpd(t)
	var buf bytes.Buffer
	if err := run([]string{"-control", sock, "status", "-json"}, &buf); err != nil {
		t.Fatal(err)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("status -json is not JSON: %v\n%s", err, buf.String())
	}
	for _, field := range []string{
		"schema", "generation", "uptime_sec", "solve_source", "journal_error",
		"tracer_dropped", "degraded_rung", "last_epoch_error", "store_degraded",
		"alloc_cache", "fleet_power_w", "budget_w", "sessions",
	} {
		if _, ok := doc[field]; !ok {
			t.Errorf("status -json missing field %q:\n%s", field, buf.String())
		}
	}
	var parsed harp.Status
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatal(err)
	}
	if parsed.Schema != harp.StatusSchema {
		t.Errorf("schema = %d, want %d", parsed.Schema, harp.StatusSchema)
	}
	if len(parsed.Sessions) != 2 {
		t.Fatalf("sessions = %d, want 2", len(parsed.Sessions))
	}
	if s := parsed.Sessions[0]; s.Instance != "ep.C/1" || s.Liveness != "live" || s.PowerW != 37.5 {
		t.Errorf("first session row = %+v", s)
	}
	if parsed.Sessions[1].Liveness != "quarantined" {
		t.Errorf("liveness not symbolised: %+v", parsed.Sessions[1])
	}
	if parsed.BudgetW != 60.0 || parsed.FleetPowerW != 37.5 {
		t.Errorf("budget/power = %.1f/%.1f, want 60.0/37.5", parsed.BudgetW, parsed.FleetPowerW)
	}
}

// TestFleetCommandRendersEveryMachine: reachable machines get a live row,
// unreachable machines a down row with the dial error, and any down
// machine turns into exit code 1 for scripts.
func TestFleetCommandRendersEveryMachine(t *testing.T) {
	up := fakeHarpd(t)
	dead := filepath.Join(t.TempDir(), "dead.sock")

	var buf bytes.Buffer
	err := run([]string{"fleet", up, dead}, &buf)
	var ee exitError
	if !errors.As(err, &ee) || ee.code != 1 {
		t.Fatalf("fleet with a down machine: err = %v, want exit code 1", err)
	}
	out := buf.String()
	for _, want := range []string{
		"MACHINE", "SESSIONS", "POWER[W]", "BUDGET[W]",
		up, "up", "degraded", "37.5", "60.0", "2m5s",
		dead, "down",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("fleet output missing %q:\n%s", want, out)
		}
	}

	// All machines healthy: the command succeeds.
	buf.Reset()
	if err := run([]string{"fleet", up}, &buf); err != nil {
		t.Fatalf("fleet over a healthy machine: %v", err)
	}
}

func TestFleetJSON(t *testing.T) {
	up := fakeHarpd(t)
	dead := filepath.Join(t.TempDir(), "dead.sock")
	var buf bytes.Buffer
	err := run([]string{"fleet", "-json", up, dead}, &buf)
	var ee exitError
	if !errors.As(err, &ee) || ee.code != 1 {
		t.Fatalf("err = %v, want exit code 1", err)
	}
	var rows []fleetRow
	if err := json.Unmarshal(buf.Bytes(), &rows); err != nil {
		t.Fatalf("fleet -json is not JSON: %v\n%s", err, buf.String())
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(rows))
	}
	if !rows[0].Up || rows[0].Sessions != 2 || rows[0].Health != "degraded" {
		t.Errorf("up row = %+v", rows[0])
	}
	if rows[1].Up || rows[1].Error == "" {
		t.Errorf("down row = %+v", rows[1])
	}
}

func TestFleetUsage(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"fleet"}, &buf); err == nil {
		t.Error("fleet with no sockets accepted")
	}
}
