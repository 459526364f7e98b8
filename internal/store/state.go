// Package store is harpd's durable-state layer: an atomic, checksummed
// snapshot of the resource manager's learned state plus a CRC-per-record
// append-only write-ahead log of the mutations since. Together they let the
// RM restart warm — reconnecting applications resume with their replayed
// operating-point tables at their prior exploration stage instead of
// re-learning (see OPERATIONS.md, "Warm restart").
//
// The layer is deliberately small: the only state worth money is what §4.2
// exploration spends dozens of epochs acquiring (measured operating-point
// tables) plus enough session context to greet reconnecting applications
// (instance, adaptivity, phase) and the decision-sequence high-water mark.
// Exploration *stage* is never stored — it is derived from a table's
// measured-point count, so replaying tables restores it for free. Neither
// are solver memos such as the allocator's solution cache: the first solve
// after a restart rebuilds what they would have saved. Snapshots written
// before that rule carried an "allocCache" block; decoding ignores it and
// the next snapshot drops it.
package store

import (
	"github.com/harp-rm/harp/internal/opoint"
	"github.com/harp-rm/harp/internal/telemetry"
)

// Record kinds logged to the WAL, one per mutating journal trigger.
const (
	// RecRegister logs a session registration (or resumption).
	RecRegister = "register"
	// RecDeregister logs a session exit or liveness reap.
	RecDeregister = "deregister"
	// RecTable logs an uploaded operating-point table.
	RecTable = "table"
	// RecPoint logs one measured operating point committed by exploration
	// (graduations are implied: stage is derived from the measured count).
	RecPoint = "point"
	// RecPhase logs an application phase change.
	RecPhase = "phase"
	// RecEnergy logs a full energy-ledger snapshot (appended once per epoch;
	// each record supersedes the previous, so replay keeps only the last).
	RecEnergy = "energy"
)

// Record is one WAL entry. LSN is assigned by Store.Append; Seq carries the
// manager's decision-sequence high-water so replay recovers it exactly.
type Record struct {
	LSN        uint64                 `json:"lsn"`
	Kind       string                 `json:"kind"`
	Seq        int                    `json:"seq,omitempty"`
	Instance   string                 `json:"instance,omitempty"`
	App        string                 `json:"app,omitempty"`
	Adaptivity string                 `json:"adaptivity,omitempty"`
	OwnUtility bool                   `json:"ownUtility,omitempty"`
	Phase      string                 `json:"phase,omitempty"`
	Stage      string                 `json:"stage,omitempty"`
	Table      *opoint.Table          `json:"table,omitempty"`
	Point      *opoint.OperatingPoint `json:"point,omitempty"`
	Energy     *telemetry.EnergyState `json:"energy,omitempty"`
}

// SessionState is the durable view of one registered session.
type SessionState struct {
	Instance   string `json:"instance"`
	App        string `json:"app"`
	Adaptivity string `json:"adaptivity"`
	OwnUtility bool   `json:"ownUtility,omitempty"`
	Phase      string `json:"phase,omitempty"`
}

// State is the full durable state: what a snapshot holds and what WAL replay
// reconstructs. WALSeq is the LSN high-water folded into the state — replay
// skips records at or below it, which makes the snapshot-then-rotate crash
// window idempotent (a crash between snapshot rename and WAL truncation
// leaves stale records behind; they are skipped on the next boot).
type State struct {
	Generation uint64                   `json:"generation"`
	WALSeq     uint64                   `json:"walSeq"`
	Seq        int                      `json:"seq"`
	Tables     map[string]*opoint.Table `json:"tables,omitempty"`
	Sessions   []SessionState           `json:"sessions,omitempty"`
	// Energy is the cumulative energy ledger at the last epoch — per-session
	// and fleet joules survive a warm restart, so "joules since deployment"
	// stays meaningful across kill -9 (at most the accrual since the last
	// epoch's WAL record is lost).
	Energy *telemetry.EnergyState `json:"energy,omitempty"`
}

// NewState returns an empty cold-start state.
func NewState() *State {
	return &State{Tables: make(map[string]*opoint.Table)}
}

// Apply folds one WAL record into the state. Records at or below the
// state's WALSeq are duplicates from a pre-rotation WAL and are skipped.
// Unknown kinds are ignored (forward compatibility): the record was CRC-valid,
// so dropping it beats aborting the whole recovery.
func (s *State) Apply(r Record) {
	if r.LSN != 0 && r.LSN <= s.WALSeq {
		return
	}
	if r.LSN > s.WALSeq {
		s.WALSeq = r.LSN
	}
	if r.Seq > s.Seq {
		s.Seq = r.Seq
	}
	switch r.Kind {
	case RecRegister:
		if r.Instance == "" {
			return
		}
		s.removeSession(r.Instance)
		s.Sessions = append(s.Sessions, SessionState{
			Instance:   r.Instance,
			App:        r.App,
			Adaptivity: r.Adaptivity,
			OwnUtility: r.OwnUtility,
			Phase:      r.Phase,
		})
	case RecDeregister:
		s.removeSession(r.Instance)
	case RecTable:
		if r.Table == nil || r.App == "" {
			return
		}
		s.mergeTable(r.App, r.Table)
	case RecPoint:
		if r.Point == nil || r.App == "" {
			return
		}
		s.table(r.App, "").Upsert(*r.Point)
	case RecPhase:
		for i := range s.Sessions {
			if s.Sessions[i].Instance == r.Instance {
				s.Sessions[i].Phase = r.Phase
			}
		}
	case RecEnergy:
		if r.Energy != nil {
			s.Energy = r.Energy.Clone()
		}
	}
}

// removeSession drops the session with the given instance, if present.
func (s *State) removeSession(instance string) {
	for i := range s.Sessions {
		if s.Sessions[i].Instance == instance {
			s.Sessions = append(s.Sessions[:i], s.Sessions[i+1:]...)
			return
		}
	}
}

// table returns the app's stored table, creating it on first use.
func (s *State) table(app, platformName string) *opoint.Table {
	if s.Tables == nil {
		s.Tables = make(map[string]*opoint.Table)
	}
	t, ok := s.Tables[app]
	if !ok {
		t = &opoint.Table{App: app, Platform: platformName}
		s.Tables[app] = t
	}
	return t
}

// mergeTable merges an uploaded table into the app's stored table, so a
// later upload refines rather than forgets earlier learning. It merges as
// the explorer does (opoint.Table.Merge): a re-upload of the same vectors
// costs O(n) comparisons.
func (s *State) mergeTable(app string, up *opoint.Table) {
	t := s.table(app, up.Platform).Merge(up.Points, false)
	if t.Platform == "" {
		t.Platform = up.Platform
	}
	s.Tables[app] = t
}
