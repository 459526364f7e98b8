package harp

import (
	"encoding/json"
	"testing"
	"time"

	"github.com/harp-rm/harp/internal/core"
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
