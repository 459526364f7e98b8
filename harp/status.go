package harp

import (
	"time"

	"github.com/harp-rm/harp/internal/telemetry"
)

// StatusSchema versions the Status document; bump it on any incompatible
// field change. Added fields keep the version.
const StatusSchema = 1

// Status is the resource manager's state as an administrator inspects it:
// harpd sends it on the control socket's "sessions" op, and harpctl renders
// `status`, `status -json`, `top` and `fleet` from it. The JSON field names
// are a compatibility contract for monitoring pipelines (`status -json`
// prints this document as received).
type Status struct {
	Schema int `json:"schema"`
	// Generation is the store generation (0 without a state directory).
	Generation uint64  `json:"generation"`
	UptimeSec  float64 `json:"uptime_sec"`
	// SolveSource is where the last epoch's allocation came from (empty
	// before the first solve).
	SolveSource string `json:"solve_source,omitempty"`
	// JournalError is the decision journal's sticky write error.
	JournalError  string `json:"journal_error,omitempty"`
	TracerDropped uint64 `json:"tracer_dropped,omitempty"`
	// DegradedRung is the degradation-ladder rung that resolved the last
	// epoch (empty when it solved healthily); LastEpochError is the sticky
	// message of the last failed or degraded epoch.
	DegradedRung   string `json:"degraded_rung,omitempty"`
	LastEpochError string `json:"last_epoch_error,omitempty"`
	// StoreDegraded reports exhausted store write retries (snapshots
	// suspended).
	StoreDegraded bool `json:"store_degraded,omitempty"`
	// AllocCache is nil when the solution cache is off.
	AllocCache  *CacheStatus `json:"alloc_cache,omitempty"`
	FleetPowerW float64      `json:"fleet_power_w"`
	BudgetW     float64      `json:"budget_w"`
	// Sessions lists the registered sessions in registration order.
	Sessions []SessionStatus `json:"sessions"`

	// EpochP99Sec is the p99 allocation latency (0 without metrics).
	EpochP99Sec float64 `json:"epoch_p99_sec"`
	// FleetJoules and BudgetOverrunSec are the energy ledger's cumulative
	// accumulators (0 without a ledger).
	FleetJoules      float64 `json:"fleet_joules"`
	BudgetOverrunSec float64 `json:"budget_overrun_sec"`
}

// CacheStatus is the allocator's solution-cache accounting.
type CacheStatus struct {
	Size      int     `json:"size"`
	Cap       int     `json:"cap"`
	Hits      uint64  `json:"hits"`
	Misses    uint64  `json:"misses"`
	Evictions uint64  `json:"evictions"`
	HitRate   float64 `json:"hit_rate"`
}

// SessionStatus is one registered session.
type SessionStatus struct {
	Instance string `json:"instance"`
	App      string `json:"app"`
	Stage    string `json:"stage"`
	Phase    string `json:"phase,omitempty"`
	// Liveness is the state name: live, suspect or quarantined.
	Liveness string `json:"liveness"`
	// AgeSec is the time since the session's last inbound message.
	AgeSec    float64 `json:"age_sec"`
	Utility   float64 `json:"utility"`
	PowerW    float64 `json:"power_w"`
	Vector    string  `json:"vector,omitempty"`
	Threads   int     `json:"threads"`
	Cores     int     `json:"cores"`
	Exploring bool    `json:"exploring,omitempty"`
	// Measured counts the measured points in the session's table.
	Measured int `json:"measured"`
	// Joules and Efficiency (utility-seconds per joule) come from the
	// energy ledger (0 without one).
	Joules     float64 `json:"joules"`
	Efficiency float64 `json:"efficiency"`
}

// Status reports the server's state, taken under one lock so no epoch lands
// between its parts.
func (s *Server) Status() Status {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Status{
		Schema:         StatusSchema,
		Generation:     s.Generation(),
		UptimeSec:      time.Since(s.start).Seconds(),
		SolveSource:    s.mgr.LastSolveSource(),
		TracerDropped:  s.cfg.Tracer.Dropped(),
		DegradedRung:   s.mgr.DegradedRung(),
		LastEpochError: s.mgr.LastEpochError(),
		StoreDegraded:  s.store != nil && s.store.Degraded(),
	}
	if err := s.cfg.Journal.Err(); err != nil {
		st.JournalError = err.Error()
	}
	if cs := s.mgr.AllocCacheStats(); cs.Cap > 0 {
		st.AllocCache = &CacheStatus{
			Size: cs.Size, Cap: cs.Cap,
			Hits: cs.Hits, Misses: cs.Misses, Evictions: cs.Evictions,
			HitRate: cs.HitRate(),
		}
	}
	if mt := s.cfg.Metrics; mt != nil {
		st.EpochP99Sec = mt.AllocLatency.Quantile(0.99)
	}
	tot := s.cfg.Energy.Totals()
	st.FleetPowerW, st.BudgetW = tot.PowerW, tot.BudgetW
	st.FleetJoules, st.BudgetOverrunSec = tot.Joules, tot.OverrunSec

	energy := make(map[string]telemetry.SessionEnergy)
	for _, se := range s.cfg.Energy.Sessions() {
		energy[se.Instance] = se
	}
	infos := s.sessionsLocked()
	st.Sessions = make([]SessionStatus, len(infos))
	for i, info := range infos {
		se := energy[info.Instance]
		st.Sessions[i] = SessionStatus{
			Instance:   info.Instance,
			App:        info.App,
			Stage:      info.Stage.String(),
			Phase:      info.Phase,
			Liveness:   info.Liveness.String(),
			AgeSec:     info.LastReportAgeSec,
			Utility:    info.Utility,
			PowerW:     info.Power,
			Vector:     info.Vector,
			Threads:    info.Threads,
			Cores:      info.Cores,
			Exploring:  info.Exploring,
			Measured:   info.Measured,
			Joules:     se.Joules,
			Efficiency: se.Efficiency(),
		}
	}
	return st
}
