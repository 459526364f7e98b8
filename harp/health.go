package harp

import (
	"fmt"
	"time"

	"github.com/harp-rm/harp/internal/core"
)

// HealthStatus grades one health check (and the overall report) on the
// conventional three-level scale: ok means the RM is operating inside its
// envelope, degraded means it is serving but some guarantee is eroding
// (events dropped, budget exceeded, sessions quarantined), unhealthy means
// a core contract is broken (the measure loop has lost its cadence or the
// decision journal can no longer be written).
type HealthStatus string

const (
	HealthOK        HealthStatus = "ok"
	HealthDegraded  HealthStatus = "degraded"
	HealthUnhealthy HealthStatus = "unhealthy"
)

// worse reports whether a outranks b in severity.
func (a HealthStatus) worse(b HealthStatus) bool {
	return a.rank() > b.rank()
}

func (a HealthStatus) rank() int {
	switch a {
	case HealthUnhealthy:
		return 2
	case HealthDegraded:
		return 1
	}
	return 0
}

// HealthCheck is one named probe inside a HealthReport.
type HealthCheck struct {
	Name   string       `json:"name"`
	Status HealthStatus `json:"status"`
	// Detail explains a non-ok status (and carries the measured value for
	// ok checks that have one, e.g. the jitter p99).
	Detail string `json:"detail,omitempty"`
}

// HealthReport is the server's self-assessment, served by harpd at
// /healthz and printed by `harpctl health`. Status is the worst of the
// individual checks.
type HealthReport struct {
	Status HealthStatus  `json:"status"`
	Checks []HealthCheck `json:"checks"`
}

// Health grades the server against its operating envelope:
//
//   - measure-jitter: the p99 deviation of the measure loop from its
//     cadence. Past half the cadence the loop is degraded; past a full
//     cadence it is effectively missing epochs — unhealthy.
//   - journal: a sticky decision-journal write error means decisions are
//     being made but not recorded — unhealthy.
//   - tracer: ring evictions mean the flight recorder has holes — degraded.
//   - sessions: quarantined sessions are being carried dead weight —
//     degraded.
//   - epochs: the most recent epoch was resolved by a degradation-ladder
//     rung instead of a healthy solve — degraded.
//   - store: corruption events survived recovery but cost records —
//     degraded.
//   - store-durability: the store exhausted its write retries and
//     suspended snapshots (allocation continues undurably) — degraded.
//   - budget: accumulated time over the epoch power budget — degraded.
//
// Checks whose subsystem is disabled (no metrics, no journal, no ledger)
// report ok with a "disabled" detail rather than being omitted, so the
// check list is stable for scrapers.
func (s *Server) Health() HealthReport {
	s.mu.Lock()
	defer s.mu.Unlock()
	rep := HealthReport{Status: HealthOK}
	add := func(name string, st HealthStatus, detail string) {
		rep.Checks = append(rep.Checks, HealthCheck{Name: name, Status: st, Detail: detail})
		if st.worse(rep.Status) {
			rep.Status = st
		}
	}

	if mt := s.cfg.Metrics; mt != nil {
		cadence := s.cfg.MeasureEvery.Seconds()
		p99 := mt.MeasureJitter.Quantile(0.99)
		switch {
		case cadence > 0 && p99 > cadence:
			add("measure-jitter", HealthUnhealthy,
				fmt.Sprintf("p99 %.1fms exceeds the %.0fms cadence", p99*1e3, cadence*1e3))
		case cadence > 0 && p99 > cadence/2:
			add("measure-jitter", HealthDegraded,
				fmt.Sprintf("p99 %.1fms exceeds half the %.0fms cadence", p99*1e3, cadence*1e3))
		default:
			add("measure-jitter", HealthOK, fmt.Sprintf("p99 %.1fms", p99*1e3))
		}
	} else {
		add("measure-jitter", HealthOK, "metrics disabled")
	}

	if err := s.cfg.Journal.Err(); err != nil {
		add("journal", HealthUnhealthy, err.Error())
	} else if !s.cfg.Journal.Enabled() {
		add("journal", HealthOK, "disabled")
	} else {
		add("journal", HealthOK, "")
	}

	if n := s.cfg.Tracer.Dropped(); n > 0 {
		add("tracer", HealthDegraded, fmt.Sprintf("%d events evicted from the ring", n))
	} else {
		add("tracer", HealthOK, "")
	}

	quarantined := 0
	for _, info := range s.mgr.Sessions() {
		if info.Liveness == core.LivenessQuarantined {
			quarantined++
		}
	}
	if quarantined > 0 {
		add("sessions", HealthDegraded, fmt.Sprintf("%d quarantined", quarantined))
	} else {
		add("sessions", HealthOK, "")
	}

	if rung := s.mgr.DegradedRung(); rung != "" {
		detail := rung
		if msg := s.mgr.LastEpochError(); msg != "" {
			detail = fmt.Sprintf("%s: %s", rung, msg)
		}
		add("epochs", HealthDegraded, detail)
	} else {
		add("epochs", HealthOK, "")
	}

	if rec, ok := s.StoreRecovery(); ok && rec.Corruptions > 0 {
		add("store", HealthDegraded, fmt.Sprintf("%d corruption events at recovery", rec.Corruptions))
	} else if !ok {
		add("store", HealthOK, "disabled")
	} else {
		add("store", HealthOK, "")
	}

	if s.store == nil {
		add("store-durability", HealthOK, "disabled")
	} else if s.store.Degraded() {
		add("store-durability", HealthDegraded,
			"write retries exhausted; snapshots suspended, allocation continues undurably")
	} else {
		add("store-durability", HealthOK, "")
	}

	if s.cfg.Energy != nil {
		tot := s.cfg.Energy.Totals()
		if tot.OverrunSec > 0 {
			add("budget", HealthDegraded,
				fmt.Sprintf("%s over the power budget", time.Duration(tot.OverrunSec*float64(time.Second)).Round(time.Millisecond)))
		} else {
			add("budget", HealthOK, "")
		}
	} else {
		add("budget", HealthOK, "energy ledger disabled")
	}

	return rep
}
