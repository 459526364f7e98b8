package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"github.com/harp-rm/harp/internal/opoint"
	"github.com/harp-rm/harp/internal/platform"
	"github.com/harp-rm/harp/internal/telemetry"
)

// pt builds a measured operating point on the Raptor Lake vector shape.
func pt(t *testing.T, util, power float64, cores int) opoint.OperatingPoint {
	t.Helper()
	rv := platform.NewResourceVector(platform.RaptorLake())
	rv.Counts[0][0] = cores
	return opoint.OperatingPoint{Vector: rv, Utility: util, Power: power, Measured: true}
}

func appendAll(t *testing.T, s *Store, recs ...Record) {
	t.Helper()
	for _, r := range recs {
		if err := s.Append(r); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
}

func TestColdStartThenWarmRestart(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if got := s.Generation(); got != 1 {
		t.Fatalf("fresh generation = %d, want 1", got)
	}
	if !s.Recovery().ColdStart {
		t.Fatalf("fresh dir should be a cold start")
	}
	p1, p2 := pt(t, 100, 10, 1), pt(t, 200, 20, 2)
	appendAll(t, s,
		Record{Kind: RecRegister, Instance: "ep/1", App: "ep", Adaptivity: "scalable", Seq: 1},
		Record{Kind: RecPoint, App: "ep", Point: &p1, Seq: 2},
		Record{Kind: RecPoint, App: "ep", Point: &p2, Seq: 3},
		Record{Kind: RecPhase, Instance: "ep/1", Phase: "solve", Seq: 4},
	)
	s.Close() // crash: no snapshot

	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	if got := s2.Generation(); got != 2 {
		t.Fatalf("generation after restart = %d, want 2", got)
	}
	rec := s2.Recovery()
	if rec.ColdStart || rec.WALRecords != 4 || rec.Corruptions != 0 {
		t.Fatalf("recovery = %+v, want warm with 4 records", rec)
	}
	st := s2.RecoveredState()
	if st.Seq != 4 {
		t.Fatalf("recovered Seq = %d, want 4", st.Seq)
	}
	if n := st.Tables["ep"].MeasuredCount(); n != 2 {
		t.Fatalf("recovered measured points = %d, want 2", n)
	}
	if len(st.Sessions) != 1 || st.Sessions[0].Phase != "solve" {
		t.Fatalf("recovered sessions = %+v", st.Sessions)
	}
}

func TestSnapshotRotatesWALAndReplays(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	p1, p2 := pt(t, 100, 10, 1), pt(t, 150, 12, 2)
	appendAll(t, s,
		Record{Kind: RecRegister, Instance: "mg/7", App: "mg", Adaptivity: "scalable", Seq: 1},
		Record{Kind: RecPoint, App: "mg", Point: &p1, Seq: 2},
	)
	st := NewState()
	st.Seq = 2
	st.Sessions = []SessionState{{Instance: "mg/7", App: "mg", Adaptivity: "scalable"}}
	st.Tables["mg"] = &opoint.Table{App: "mg", Points: []opoint.OperatingPoint{p1}}
	if err := s.WriteSnapshot(st); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	// The WAL must be back to a bare header.
	if fi, err := os.Stat(filepath.Join(dir, walName)); err != nil || fi.Size() != 12 {
		t.Fatalf("WAL after rotation: %v size=%d, want 12", err, fi.Size())
	}
	appendAll(t, s, Record{Kind: RecPoint, App: "mg", Point: &p2, Seq: 3})
	s.Close()

	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	rec := s2.Recovery()
	if !rec.SnapshotLoaded || rec.WALRecords != 1 || rec.Corruptions != 0 {
		t.Fatalf("recovery = %+v, want snapshot + 1 WAL record", rec)
	}
	got := s2.RecoveredState()
	if n := got.Tables["mg"].MeasuredCount(); n != 2 {
		t.Fatalf("measured points = %d, want 2 (snapshot + WAL)", n)
	}
	if got.Seq != 3 || got.Generation != 2 {
		t.Fatalf("Seq=%d Generation=%d, want 3 and 2", got.Seq, got.Generation)
	}
}

func TestTornWALTailTruncatesToLastValidRecord(t *testing.T) {
	for name, mangle := range map[string]func([]byte) []byte{
		"truncated-mid-record": func(raw []byte) []byte { return raw[:len(raw)-3] },
		"bit-flip-in-tail": func(raw []byte) []byte {
			raw[len(raw)-2] ^= 0x40
			return raw
		},
		"garbage-appended": func(raw []byte) []byte { return append(raw, 0xde, 0xad, 0xbe, 0xef) },
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			s, err := Open(dir, Options{})
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			p1, p2 := pt(t, 100, 10, 1), pt(t, 150, 12, 2)
			appendAll(t, s,
				Record{Kind: RecPoint, App: "ep", Point: &p1, Seq: 1},
				Record{Kind: RecPoint, App: "ep", Point: &p2, Seq: 2},
			)
			s.Close()

			walPath := filepath.Join(dir, walName)
			raw, err := os.ReadFile(walPath)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(walPath, mangle(raw), 0o644); err != nil {
				t.Fatal(err)
			}

			mt := telemetry.NewMetrics(telemetry.NewRegistry())
			s2, err := Open(dir, Options{Metrics: mt})
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			rec := s2.Recovery()
			if rec.ColdStart {
				t.Fatalf("torn tail must not force a cold start: %+v", rec)
			}
			if rec.Corruptions != 1 || rec.Err == nil {
				t.Fatalf("recovery = %+v, want 1 corruption with Err", rec)
			}
			if rec.WALRecords < 1 {
				t.Fatalf("recovered %d records, want >= 1", rec.WALRecords)
			}
			// The store stays usable: append and re-recover cleanly. The
			// boot checkpoint folded the healed replay into a snapshot, so
			// the third open sees only the new append in the WAL.
			p3 := pt(t, 50, 5, 3)
			appendAll(t, s2, Record{Kind: RecPoint, App: "ep", Point: &p3, Seq: 3})
			// The store's families saw the truncation, the replay, the
			// boot checkpoint and the append.
			if got := mt.StoreCorruptions.Value(); got != 1 {
				t.Errorf("harp_store_corruptions_total = %d, want 1", got)
			}
			if got := mt.StoreReplaySeconds.Value(); got != rec.Duration.Seconds() || got <= 0 {
				t.Errorf("harp_store_replay_seconds = %g, want the recovery's %v", got, rec.Duration)
			}
			if got := mt.StoreSnapshotBytes.Value(); got <= 0 {
				t.Errorf("harp_store_snapshot_bytes = %g after the boot checkpoint, want > 0", got)
			}
			if got := mt.StoreWALRecords.Value(); got != 1 {
				t.Errorf("harp_store_wal_records_total = %d, want 1", got)
			}
			if age := s2.SnapshotAge(); age <= 0 || mt.StoreSnapshotAge.Value() != age.Seconds() {
				t.Errorf("harp_store_snapshot_age_seconds = %g, want the store's %v", mt.StoreSnapshotAge.Value(), age)
			}
			s2.Close()
			s3, err := Open(dir, Options{})
			if err != nil {
				t.Fatalf("third open: %v", err)
			}
			defer s3.Close()
			if s3.Recovery().Corruptions != 0 {
				t.Fatalf("truncation did not heal the WAL: %+v", s3.Recovery())
			}
			if got := s3.Recovery().WALRecords; got != 1 {
				t.Fatalf("records after heal = %d, want 1 (rest checkpointed)", got)
			}
			want := rec.WALRecords + 1
			got := 0
			for _, tbl := range s3.RecoveredState().Tables {
				got += tbl.MeasuredCount()
			}
			if got != want {
				t.Fatalf("measured points after heal = %d, want %d", got, want)
			}
		})
	}
}

func TestCorruptSnapshotQuarantinesAndColdStarts(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	p1 := pt(t, 100, 10, 1)
	appendAll(t, s, Record{Kind: RecPoint, App: "ep", Point: &p1, Seq: 1})
	st := NewState()
	if err := s.WriteSnapshot(st); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	s.Close()

	snapPath := filepath.Join(dir, snapshotName)
	raw, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xff
	if err := os.WriteFile(snapPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	rec := s2.Recovery()
	if !rec.ColdStart || rec.Err == nil || !errors.Is(rec.Err, ErrCorrupt) {
		t.Fatalf("recovery = %+v, want cold start with ErrCorrupt", rec)
	}
	if rec.Quarantined == "" {
		t.Fatalf("corrupt snapshot was not quarantined")
	}
	if _, err := os.Stat(filepath.Join(rec.Quarantined, snapshotName)); err != nil {
		t.Fatalf("quarantined snapshot missing: %v", err)
	}
	if got := s2.Generation(); got != 1 {
		t.Fatalf("cold-start generation = %d, want 1", got)
	}
	if len(s2.RecoveredState().Tables) != 0 {
		t.Fatalf("cold start should have no tables")
	}
}

func TestCorruptWALHeaderQuarantinesWALKeepsSnapshot(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	st := NewState()
	p1 := pt(t, 100, 10, 1)
	st.Tables["ep"] = &opoint.Table{App: "ep", Points: []opoint.OperatingPoint{p1}}
	if err := s.WriteSnapshot(st); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	s.Close()

	if err := os.WriteFile(filepath.Join(dir, walName), []byte("not a wal"), 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	rec := s2.Recovery()
	if rec.ColdStart {
		t.Fatalf("healthy snapshot must survive a corrupt WAL: %+v", rec)
	}
	if rec.Quarantined == "" || rec.Corruptions != 1 {
		t.Fatalf("recovery = %+v, want quarantined WAL", rec)
	}
	if n := s2.RecoveredState().Tables["ep"].MeasuredCount(); n != 1 {
		t.Fatalf("snapshot state lost: measured = %d, want 1", n)
	}
}

// TestStaleWALRecordsSkippedAfterRotationCrash covers the crash window
// between the snapshot rename and the WAL truncation: stale records with
// LSN <= the snapshot's WALSeq must not be applied twice.
func TestStaleWALRecordsSkippedAfterRotationCrash(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	p1 := pt(t, 100, 10, 1)
	appendAll(t, s, Record{Kind: RecRegister, Instance: "ep/1", App: "ep", Seq: 1},
		Record{Kind: RecPoint, App: "ep", Point: &p1, Seq: 2})
	walRaw, err := os.ReadFile(filepath.Join(dir, walName))
	if err != nil {
		t.Fatal(err)
	}
	st := NewState()
	st.Seq = 2
	st.Sessions = []SessionState{{Instance: "ep/1", App: "ep"}}
	st.Tables["ep"] = &opoint.Table{App: "ep", Points: []opoint.OperatingPoint{p1}}
	if err := s.WriteSnapshot(st); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	s.Close()
	// Simulate the crash: restore the pre-rotation WAL next to the new
	// snapshot.
	if err := os.WriteFile(filepath.Join(dir, walName), walRaw, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	got := s2.RecoveredState()
	if n := len(got.Tables["ep"].Points); n != 1 {
		t.Fatalf("stale WAL records were re-applied: %d points, want 1", n)
	}
	if len(got.Sessions) != 1 {
		t.Fatalf("sessions = %+v, want exactly the snapshot session", got.Sessions)
	}
	// New appends after the recovered LSN still apply.
	p2 := pt(t, 150, 12, 2)
	appendAll(t, s2, Record{Kind: RecPoint, App: "ep", Point: &p2, Seq: 3})
}

func TestSnapshotRoundTripAndCorruptionVariants(t *testing.T) {
	st := NewState()
	st.Generation = 7
	st.Seq = 42
	p1 := pt(t, 100, 10, 1)
	st.Tables["ep"] = &opoint.Table{App: "ep", Platform: "intel", Points: []opoint.OperatingPoint{p1}}
	st.Sessions = []SessionState{{Instance: "ep/1", App: "ep", Adaptivity: "scalable", Phase: "x"}}
	raw, err := EncodeSnapshot(st)
	if err != nil {
		t.Fatalf("EncodeSnapshot: %v", err)
	}
	got, err := DecodeSnapshot(raw)
	if err != nil {
		t.Fatalf("DecodeSnapshot: %v", err)
	}
	if got.Generation != 7 || got.Seq != 42 || len(got.Sessions) != 1 || got.Tables["ep"].MeasuredCount() != 1 {
		t.Fatalf("round trip lost state: %+v", got)
	}

	for name, mangle := range map[string]func([]byte) []byte{
		"empty":        func(b []byte) []byte { return nil },
		"short":        func(b []byte) []byte { return b[:8] },
		"bad-magic":    func(b []byte) []byte { b[0] ^= 0xff; return b },
		"bad-version":  func(b []byte) []byte { b[9] ^= 0xff; return b },
		"bad-length":   func(b []byte) []byte { b[14] ^= 0xff; return b },
		"payload-flip": func(b []byte) []byte { b[len(b)/2] ^= 1; return b },
		"crc-flip":     func(b []byte) []byte { b[len(b)-1] ^= 1; return b },
		"truncated":    func(b []byte) []byte { return b[:len(b)-5] },
		"trailing":     func(b []byte) []byte { return append(b, 0) },
	} {
		t.Run(name, func(t *testing.T) {
			b := append([]byte(nil), raw...)
			if _, err := DecodeSnapshot(mangle(b)); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("mangled snapshot decoded: err=%v", err)
			}
		})
	}
}

func TestReplayWALStopsAtFirstBadRecord(t *testing.T) {
	var buf bytes.Buffer
	buf.WriteString(walMagic)
	var v [4]byte
	binary.BigEndian.PutUint32(v[:], Version)
	buf.Write(v[:])
	write := func(payload []byte, crc uint32) {
		var hdr [8]byte
		binary.BigEndian.PutUint32(hdr[:4], uint32(len(payload)))
		binary.BigEndian.PutUint32(hdr[4:], crc)
		buf.Write(hdr[:])
		buf.Write(payload)
	}
	good := []byte(`{"lsn":1,"kind":"phase","instance":"a","phase":"p"}`)
	write(good, crc32.ChecksumIEEE(good))
	bad := []byte(`{"lsn":2,"kind":"phase"}`)
	write(bad, crc32.ChecksumIEEE(bad)+1)
	trailingGood := []byte(`{"lsn":3,"kind":"phase"}`)
	write(trailingGood, crc32.ChecksumIEEE(trailingGood))

	var applied []Record
	n, valid, err := ReplayWAL(bytes.NewReader(buf.Bytes()), func(r Record) { applied = append(applied, r) })
	if n != 1 || len(applied) != 1 || applied[0].LSN != 1 {
		t.Fatalf("replayed %d records (%+v), want exactly the first", n, applied)
	}
	if err == nil || !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
	wantValid := int64(12 + 8 + len(good))
	if valid != wantValid {
		t.Fatalf("valid = %d, want %d", valid, wantValid)
	}
}

func TestStateApplySkipsDuplicateLSNs(t *testing.T) {
	st := NewState()
	p1 := pt(t, 100, 10, 1)
	st.Apply(Record{LSN: 5, Kind: RecPoint, App: "ep", Point: &p1, Seq: 9})
	before := len(st.Tables["ep"].Points)
	st.Apply(Record{LSN: 5, Kind: RecPoint, App: "ep", Point: &p1})
	st.Apply(Record{LSN: 3, Kind: RecRegister, Instance: "ghost/1", App: "ghost"})
	if len(st.Tables["ep"].Points) != before || len(st.Sessions) != 0 {
		t.Fatalf("duplicate/stale LSNs were applied: %+v", st)
	}
	if st.WALSeq != 5 || st.Seq != 9 {
		t.Fatalf("high-waters: WALSeq=%d Seq=%d, want 5 and 9", st.WALSeq, st.Seq)
	}
	// Unknown kinds are skipped without error.
	st.Apply(Record{LSN: 6, Kind: "future-kind"})
	if st.WALSeq != 6 {
		t.Fatalf("unknown kind must still advance WALSeq")
	}
}

func TestStoreErrIsStickyButNonFatal(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	s.Close()
	if err := s.Append(Record{Kind: RecPhase, Instance: "x"}); err == nil {
		t.Fatalf("Append after Close must error")
	}
}
