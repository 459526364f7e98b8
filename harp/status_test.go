package harp

import (
	"encoding/json"
	"testing"
	"time"

	"github.com/harp-rm/harp/internal/core"
	"github.com/harp-rm/harp/internal/platform"
	"github.com/harp-rm/harp/internal/telemetry"
)

// TestStatusOfLiveServer reads Status off a real server carrying one live
// session (a Client, which answers liveness pings) and one quarantined
// session (a raw connection that never speaks again): liveness arrives as
// the state name, the default solution cache is reported, and the live
// session's joules are joined onto its row.
func TestStatusOfLiveServer(t *testing.T) {
	srv, sock := startServer(t, ServerConfig{
		Sampler: fixedSampler{utility: 80, power: 20},
		Energy:  telemetry.NewEnergyLedger(),
		// A suspect session is pinged every sweep until QuarantineAfter; the
		// wide window lets the live client's pong land even under -race.
		Liveness: core.LivenessPolicy{
			SuspectAfter:    50 * time.Millisecond,
			QuarantineAfter: 500 * time.Millisecond,
			ReapAfter:       time.Minute,
		},
	}, measureEvery(10*time.Millisecond))
	client, err := Dial(sock, Registration{App: "alive", PID: 1, Adaptivity: Static})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	silent := rawRegister(t, sock, "silent", 2)
	defer silent.Close()

	var st Status
	deadline := time.Now().Add(5 * time.Second)
	for {
		st = srv.Status()
		rows := map[string]SessionStatus{}
		for _, s := range st.Sessions {
			rows[s.Instance] = s
		}
		if live, dead := rows["alive/1"], rows["silent/2"]; live.Liveness == "live" &&
			live.Joules > 0 && dead.Liveness == "quarantined" {
			if live.Efficiency <= 0 {
				t.Errorf("live row efficiency = %v with %v J attributed", live.Efficiency, live.Joules)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("never saw one live session with joules and one quarantined: %+v", st.Sessions)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if st.Schema != StatusSchema || st.UptimeSec <= 0 || st.Generation != 0 {
		t.Errorf("header: schema %d, uptime %v, generation %d", st.Schema, st.UptimeSec, st.Generation)
	}
	if st.AllocCache == nil || st.AllocCache.Cap == 0 {
		t.Errorf("alloc cache = %+v, want the default cache", st.AllocCache)
	}
	if st.SolveSource == "" {
		t.Error("no solve source after two registrations")
	}
	if st.FleetJoules <= 0 {
		t.Errorf("fleet joules = %v", st.FleetJoules)
	}

	// The wire form carries the liveness name, not the enum value.
	b, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	var wire struct {
		Sessions []map[string]any `json:"sessions"`
	}
	if err := json.Unmarshal(b, &wire); err != nil {
		t.Fatal(err)
	}
	for _, row := range wire.Sessions {
		if _, ok := row["liveness"].(string); !ok {
			t.Errorf("liveness not a name on the wire: %v", row)
		}
	}
}

// TestStatusCoAllocatedShare reads the overload regime off a real server: on
// a one-core machine the first of two sessions holds the core in isolation
// and the second is co-allocated onto it, so exactly that row is marked and
// the share is one half.
func TestStatusCoAllocatedShare(t *testing.T) {
	plat := &platform.Platform{
		Name: "one-core", MemBWGips: 50, EnergySensors: "package", SimultaneousPMU: true,
		Kinds: []platform.CoreKind{{Name: "P", Count: 1, SMT: 1, MaxFreqGHz: 3, MinFreqGHz: 0.5, IPC: 2, ActiveWatts: 2, IdleWatts: 0.2, SleepWatts: 0.02}},
	}
	srv, sock := startServer(t, ServerConfig{Platform: plat})
	for pid, app := range []string{"first", "second"} {
		c, err := Dial(sock, Registration{App: app, PID: pid + 1, Adaptivity: Static})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
	}
	var st Status
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		if st = srv.Status(); len(st.Sessions) == 2 && st.Sessions[1].Cores > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("never saw both sessions placed: %+v", st.Sessions)
		}
	}
	if first, second := st.Sessions[0], st.Sessions[1]; first.CoAllocated || !second.CoAllocated {
		t.Errorf("co-allocation flags %v/%v, want the first session isolated and the second co-allocated", first.CoAllocated, second.CoAllocated)
	}
	if st.CoAllocatedShare != 0.5 {
		t.Errorf("co-allocated share %v, want 0.5", st.CoAllocatedShare)
	}
}
