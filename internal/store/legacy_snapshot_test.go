package store

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"github.com/harp-rm/harp/internal/telemetry"
)

// legacyAllocCachePayload is a snapshot payload in the encoding used while
// snapshots still carried the allocator's solution cache: an "allocCache"
// block beside the tables, sessions and energy ledger.
const legacyAllocCachePayload = `{"generation":3,"walSeq":7,"seq":42,` +
	`"tables":{"ep.C":{"app":"ep.C","platform":"intel-raptor-lake-i9-13900k","points":[{"vector":{"counts":[[2,0],[0]]},"utility":40,"power":12,"measured":true}]}},` +
	`"sessions":[{"instance":"ep-1","app":"ep.C","adaptivity":"scalable","phase":"solve"}],` +
	`"allocCache":[{"key":{"hi":4660,"lo":22136},"allocations":[{"ID":"ep-1","Point":{"vector":{"counts":[[2,0],[0]]},"utility":40,"power":12,"measured":true},"Grants":[{"Core":0,"Threads":2},{"Core":1,"Threads":2}],"CoAllocated":false}],"stats":{"Apps":1,"Candidates":1,"LambdaIters":3,"CoAllocated":0,"Source":"cold","Pinned":0,"Resolved":0}}],` +
	`"energy":{"fleetJoules":123.5,"fleetUtilityS":4000,"sessions":[{"instance":"ep-1","joules":123.5,"utilityS":4000}]}}`

// TestLegacyAllocCacheSnapshotRecovers pins the upgrade path for state dirs
// written while snapshots carried the solution cache: the snapshot recovers
// with its tables, sessions, generation and energy intact, and the boot
// checkpoint — the next snapshot — no longer holds the block.
func TestLegacyAllocCacheSnapshotRecovers(t *testing.T) {
	dir := t.TempDir()
	payload := []byte(legacyAllocCachePayload)
	raw := binary.BigEndian.AppendUint32([]byte(snapshotMagic), Version)
	raw = binary.BigEndian.AppendUint32(raw, uint32(len(payload)))
	raw = append(raw, payload...)
	raw = binary.BigEndian.AppendUint32(raw, crc32.ChecksumIEEE(payload))
	snapPath := filepath.Join(dir, snapshotName)
	if err := os.WriteFile(snapPath, raw, 0o600); err != nil {
		t.Fatal(err)
	}

	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer s.Close()
	if rec := s.Recovery(); rec.ColdStart || rec.Err != nil || rec.Corruptions != 0 {
		t.Fatalf("recovery = %+v, want a clean warm start", rec)
	}
	if got := s.Generation(); got != 4 {
		t.Fatalf("generation = %d, want 4 (recovered 3 + 1)", got)
	}
	check := func(what string, st *State) {
		t.Helper()
		if st.Seq != 42 {
			t.Errorf("%s: seq = %d, want 42", what, st.Seq)
		}
		tbl := st.Tables["ep.C"]
		if tbl == nil || len(tbl.Points) != 1 || tbl.MeasuredCount() != 1 || tbl.Points[0].Utility != 40 {
			t.Errorf("%s: table ep.C = %+v, want its one measured point", what, tbl)
		}
		want := SessionState{Instance: "ep-1", App: "ep.C", Adaptivity: "scalable", Phase: "solve"}
		if len(st.Sessions) != 1 || st.Sessions[0] != want {
			t.Errorf("%s: sessions = %+v, want [%+v]", what, st.Sessions, want)
		}
		if e := st.Energy; e == nil || e.FleetJoules != 123.5 || len(e.Sessions) != 1 || e.Sessions[0].Joules != 123.5 {
			t.Errorf("%s: energy = %+v, want 123.5 J fleet and per session", what, e)
		}
	}
	check("recovered state", s.RecoveredState())

	onDisk, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(onDisk, []byte("allocCache")) {
		t.Fatal("boot checkpoint still carries the allocCache block")
	}
	next, err := DecodeSnapshot(onDisk)
	if err != nil {
		t.Fatalf("decode boot checkpoint: %v", err)
	}
	if next.Generation != 4 {
		t.Errorf("boot checkpoint generation = %d, want 4", next.Generation)
	}
	check("boot checkpoint", next)
}

// TestEnergyStateWithUtilityTotalsLoads pins the upgrade path for energy
// ledgers persisted while they still carried the fleet and retired
// utility-second totals: a snapshot and a WAL energy record holding both
// recover, and the seeded ledger keeps every joule and each session's
// utility-seconds.
func TestEnergyStateWithUtilityTotalsLoads(t *testing.T) {
	const energy = `{"fleetJoules":200,"fleetUtilityS":900,"overrunSec":2,"retiredJoules":76.5,"retiredUtilityS":500,` +
		`"sessions":[{"instance":"ep-1","joules":123.5,"utilityS":400}]}`
	payload := []byte(`{"generation":1,"walSeq":1,"seq":5,"energy":` + energy + `}`)
	raw := binary.BigEndian.AppendUint32([]byte(snapshotMagic), Version)
	raw = binary.BigEndian.AppendUint32(raw, uint32(len(payload)))
	raw = append(raw, payload...)
	raw = binary.BigEndian.AppendUint32(raw, crc32.ChecksumIEEE(payload))
	snap, err := DecodeSnapshot(raw)
	if err != nil {
		t.Fatalf("decode snapshot: %v", err)
	}
	var rec Record
	if err := json.Unmarshal([]byte(`{"kind":"energy","energy":`+energy+`}`), &rec); err != nil {
		t.Fatalf("decode WAL record: %v", err)
	}
	replayed := NewState()
	replayed.Apply(rec)

	for what, st := range map[string]*telemetry.EnergyState{"snapshot": snap.Energy, "WAL record": replayed.Energy} {
		led := telemetry.NewEnergyLedger()
		led.Seed(st)
		tot, rows := led.Totals(), led.Sessions()
		if tot.Joules != 200 || tot.OverrunSec != 2 || led.Export().RetiredJoules != 76.5 {
			t.Errorf("%s: totals %+v, retired %v J; want 200 J, 2 s overrun, 76.5 J retired", what, tot, led.Export().RetiredJoules)
		}
		if len(rows) != 1 || rows[0].Joules != 123.5 || rows[0].UtilityS != 400 {
			t.Errorf("%s: sessions %+v, want ep-1 with 123.5 J and 400 utility-seconds", what, rows)
		}
	}
}
