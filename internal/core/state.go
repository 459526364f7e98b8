package core

import (
	"errors"
	"fmt"
	"sort"

	"github.com/harp-rm/harp/internal/alloc"
	"github.com/harp-rm/harp/internal/store"
	"github.com/harp-rm/harp/internal/telemetry"
	"github.com/harp-rm/harp/internal/workload"
)

// ErrTooManySessions is returned by Register when the MaxSessions admission
// cap is reached. Embedders report it to the client; the attempt is
// journalled and counted (harp_sessions_rejected_total).
var ErrTooManySessions = errors.New("core: session limit reached")

// StateSink receives one durable record per mutating operation — session
// registrations and exits, table uploads, committed exploration points and
// phase changes. *store.Store is the production implementation; the Manager
// ignores append errors (the store keeps a sticky error and metrics — the
// RM must not die because its disk did).
//
// When wiring a *store.Store, only assign the field when the pointer is
// non-nil: a typed-nil interface would pass the Manager's nil check and
// panic on the first append.
type StateSink interface {
	Append(store.Record) error
}

// SnapshotWriter persists a full state snapshot (implemented by
// *store.Store).
type SnapshotWriter interface {
	WriteSnapshot(*store.State) error
}

// ExportState captures the Manager's durable state: every application's
// learned operating-point table, the registered sessions, and the
// decision-sequence high-water. Sessions are sorted by instance so the
// snapshot bytes are deterministic.
func (m *Manager) ExportState() *store.State {
	st := store.NewState()
	st.Seq = m.seq
	for app, e := range m.explorers {
		st.Tables[app] = e.Table().Clone()
	}
	for _, s := range m.order {
		if s == nil {
			continue // tombstoned order slot (orderRemove)
		}
		st.Sessions = append(st.Sessions, store.SessionState{
			Instance:   s.instance,
			App:        s.app,
			Adaptivity: s.adaptivity.String(),
			OwnUtility: s.ownUtility,
			Phase:      s.phase,
		})
	}
	sort.Slice(st.Sessions, func(i, j int) bool {
		return st.Sessions[i].Instance < st.Sessions[j].Instance
	})
	if c, ok := m.allocator.(cacheExporter); ok {
		st.AllocCache = c.ExportCache(exportCacheMax)
	}
	st.Energy = m.cfg.Energy.Export()
	return st
}

// cacheExporter is the optional allocator capability ExportState/ImportState
// use to persist the fingerprinted solution cache (*alloc.Allocator
// implements it).
type cacheExporter interface {
	ExportCache(max int) []alloc.CachedSolution
	SeedCache(entries []alloc.CachedSolution)
}

// exportCacheMax bounds how many cached solutions a snapshot carries. Warm
// restart only needs the recent working set — typically the single standing
// fingerprint — not the whole LRU history.
const exportCacheMax = 16

// ImportState replays recovered state into a fresh Manager: tables seed the
// per-application explorers (restoring each app's exploration stage, which
// is derived from the measured-point count), the decision sequence resumes
// from its high-water, and the recovered sessions are remembered as prior
// instances — when their clients reconnect, Register restores their phase
// and counts the resumption. Call it once, before any session registers.
//
// The recovery itself is journalled as a `recover` epoch (with recovErr in
// the error field when recovery degraded, e.g. a quarantined store) and
// traced as EvStateRecovered.
func (m *Manager) ImportState(st *store.State, rec store.Recovery) error {
	if st == nil {
		return errors.New("core: nil state import")
	}
	if len(m.sessions) > 0 {
		return errors.New("core: state import with live sessions")
	}
	for app, tbl := range st.Tables {
		if err := tbl.Validate(m.cfg.Platform); err != nil {
			// A table that does not fit this platform (e.g. the state dir
			// moved between machines) is dropped, not fatal: the app will
			// re-learn.
			continue
		}
		m.explorerFor(app).SeedTable(tbl)
	}
	// Every recovered session may come back; make room for all of them on
	// top of the ordinary departures.
	m.ended.reserve(len(st.Sessions) + recentDepartures)
	for _, ss := range st.Sessions {
		m.ended.add(ss.Instance)
		if ss.Phase != "" {
			if m.priorPhase == nil {
				m.priorPhase = make(map[string]string)
			}
			m.priorPhase[ss.Instance] = ss.Phase
		}
	}
	if st.Seq > m.seq {
		m.seq = st.Seq
	}
	stage := "warm"
	if rec.ColdStart {
		stage = "cold"
	}
	m.cfg.Tracer.Emit(telemetry.Event{
		Kind:  telemetry.EvStateRecovered,
		Stage: stage,
		Seq:   int(rec.Generation),
		Vals: [4]float64{
			float64(len(st.Tables)),
			float64(len(st.Sessions)),
			float64(rec.WALRecords),
			float64(rec.Corruptions),
		},
	})
	errMsg := ""
	if rec.Err != nil {
		errMsg = rec.Err.Error()
	}
	if c, ok := m.allocator.(cacheExporter); ok {
		c.SeedCache(st.AllocCache)
	}
	if st.Energy != nil {
		// Restore the cumulative joule accounting so "energy since
		// deployment" survives the restart; integration re-anchors at each
		// session's next sample, so no energy is invented for the downtime.
		m.cfg.Energy.Seed(st.Energy)
	}
	m.recordEpochWith("recover", 0, "", errMsg)
	return nil
}

// SnapshotTo journals a `snapshot` epoch and then writes the exported state
// through w — in that order, so the final snapshot of a graceful shutdown
// is provably written after the last journalled epoch.
func (m *Manager) SnapshotTo(w SnapshotWriter) error {
	if w == nil {
		return errors.New("core: nil snapshot writer")
	}
	m.recordEpochWith("snapshot", 0, "", "")
	st := m.ExportState()
	if err := w.WriteSnapshot(st); err != nil {
		return fmt.Errorf("core: snapshot: %w", err)
	}
	if m.cfg.Tracer.Enabled() {
		raw, _ := store.EncodeSnapshot(st)
		m.cfg.Tracer.Emit(telemetry.Event{
			Kind: telemetry.EvSnapshotWritten,
			Seq:  m.seq,
			Vals: [4]float64{float64(len(raw))},
		})
	}
	return nil
}

// appendRecord hands one mutation record to the configured state sink.
// Append errors are deliberately dropped here: the sink keeps them sticky.
func (m *Manager) appendRecord(rec store.Record) {
	if m.cfg.Store == nil {
		return
	}
	rec.Seq = m.seq
	_ = m.cfg.Store.Append(rec)
}

// ParseAdaptivity maps the durable string form back to the workload enum
// (inverse of workload.Adaptivity.String).
func ParseAdaptivity(s string) (workload.Adaptivity, error) {
	switch s {
	case "static":
		return workload.Static, nil
	case "scalable":
		return workload.Scalable, nil
	case "custom":
		return workload.Custom, nil
	}
	return 0, fmt.Errorf("core: unknown adaptivity %q", s)
}

// rejectRegistration journals, traces and counts an admission-control
// rejection.
func (m *Manager) rejectRegistration(instance, app, reason string) error {
	m.cfg.Tracer.Emit(telemetry.Event{
		Kind:     telemetry.EvSessionRejected,
		Instance: instance,
		App:      app,
		Stage:    reason,
	})
	if mt := m.cfg.Metrics; mt != nil {
		mt.SessionsRejected.Inc()
	}
	err := fmt.Errorf("%w: %d sessions, cap %d", ErrTooManySessions, len(m.sessions), m.cfg.MaxSessions)
	m.recordEpochWith("rejected", 0, "", err.Error())
	return err
}
