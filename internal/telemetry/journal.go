package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sync"
)

// EpochInput is one application's smoothed state entering an epoch: what
// the allocator saw when it decided.
type EpochInput struct {
	Instance string  `json:"instance"`
	App      string  `json:"app"`
	Stage    string  `json:"stage"`
	Utility  float64 `json:"utility"`
	PowerW   float64 `json:"power_w"`
	// Measured is the number of measured operating points in the table.
	Measured int `json:"measured_points"`
}

// EpochOutput is one decision pushed during an epoch.
type EpochOutput struct {
	Instance    string `json:"instance"`
	Seq         int    `json:"seq"`
	Vector      string `json:"vector"`
	Threads     int    `json:"threads"`
	Cores       int    `json:"cores"`
	Exploring   bool   `json:"exploring,omitempty"`
	CoAllocated bool   `json:"co_allocated,omitempty"`
	// PredPowerW is the selected operating point's predicted power draw —
	// the application's slice of the epoch's power budget (0 for
	// exploration probes, which have no prediction yet).
	PredPowerW float64 `json:"pred_power_w,omitempty"`
}

// EpochRecord is one line of the decision journal: the adaptation loop's
// inputs and outputs for one epoch, sufficient to replay or diff a run.
type EpochRecord struct {
	// Epoch numbers records sequentially from 1.
	Epoch int `json:"epoch"`
	// AtSec is the epoch time on the injected clock (virtual seconds in
	// harpsim, wall seconds since startup in harpd).
	AtSec float64 `json:"at_sec"`
	// Trigger labels what caused the epoch: "register", "table-upload",
	// "deregister", "reap", "quarantine", "readmit", "phase-change",
	// "cadence", "graduation", "exploration" or "manual".
	Trigger string `json:"trigger"`
	// LambdaIters is the allocator's subgradient iteration count — the
	// iterations to the λ fixpoint, 0 when the epoch pushed only exploration
	// probes or was served from the solution cache.
	LambdaIters int `json:"lambda_iters,omitempty"`
	// SolveSource tells where the epoch's solution came from: "cold" (full
	// solve from zero λ), "warm" (solve seeded with the previous λ),
	// "cached" (served from the fingerprinted solution cache), or a
	// degradation-ladder rung when the primary solve failed or blew its
	// deadline budget — "degraded-greedy" (greedy fallback solve),
	// "degraded-stale" (last-known-good allocation replayed) or "frozen"
	// (no usable allocation; pushes frozen). Empty for epochs without a
	// solve.
	SolveSource string `json:"solve_source,omitempty"`
	// PowerBudgetW is the predicted system power of the epoch's standing
	// allocation — the sum of the per-app slices in Outputs plus unchanged
	// allocations.
	PowerBudgetW float64 `json:"power_budget_w"`
	// EnergyJ is the fleet's cumulative attributed energy at the end of the
	// epoch (joules on the energy ledger's clock). Omitted when no energy
	// ledger is wired in, keeping journals byte-identical to older runs.
	EnergyJ float64 `json:"energy_j,omitempty"`
	// BudgetHeadroomW is PowerBudgetW minus the measured fleet power at the
	// epoch — negative while the fleet draws more than the allocation
	// predicted. Omitted without an energy ledger.
	BudgetHeadroomW float64 `json:"budget_headroom_w,omitempty"`
	// Error records a failed reallocation: the allocator's error message for
	// an epoch that pushed no decisions because the solve itself failed.
	// Empty for successful epochs.
	Error string `json:"error,omitempty"`
	// Inputs snapshot every session's smoothed state.
	Inputs []EpochInput `json:"inputs"`
	// Outputs list the decisions pushed during this epoch (empty when the
	// reallocation confirmed the standing allocation).
	Outputs []EpochOutput `json:"outputs"`
}

// Journal writes epoch records as JSON lines. A nil *Journal is a valid
// disabled journal. Safe for concurrent use.
type Journal struct {
	mu     sync.Mutex
	enc    *json.Encoder
	epochs int
	err    error
	errs   *Counter
}

// NewJournal creates a journal writing to w.
func NewJournal(w io.Writer) *Journal {
	return &Journal{enc: json.NewEncoder(w)}
}

// Enabled reports whether records are being written.
func (j *Journal) Enabled() bool { return j != nil }

// CountErrors binds a counter (typically harp_journal_errors_total) that is
// incremented for every record lost to a write error — the first failing
// write and each record suppressed by the sticky error after it. No-op on a
// nil journal or counter.
func (j *Journal) CountErrors(c *Counter) {
	if j == nil || c == nil {
		return
	}
	j.mu.Lock()
	j.errs = c
	j.mu.Unlock()
}

// Record assigns the next epoch number and writes the record as one JSON
// line. The first write error sticks and suppresses further output.
func (j *Journal) Record(rec EpochRecord) error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		j.errs.Inc()
		return j.err
	}
	j.epochs++
	rec.Epoch = j.epochs
	if err := j.enc.Encode(rec); err != nil {
		j.err = fmt.Errorf("telemetry: journal write: %w", err)
		j.errs.Inc()
		return j.err
	}
	return nil
}

// Epochs returns how many records were written.
func (j *Journal) Epochs() int {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.epochs
}

// Err returns the sticky write error, if any.
func (j *Journal) Err() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// ReadJournal parses a JSONL decision journal back into records — the
// replay/diff half of the journal contract.
func ReadJournal(r io.Reader) ([]EpochRecord, error) {
	var out []EpochRecord
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	line := 0
	for sc.Scan() {
		line++
		text := sc.Bytes()
		if len(text) == 0 {
			continue
		}
		var rec EpochRecord
		if err := json.Unmarshal(text, &rec); err != nil {
			return nil, fmt.Errorf("telemetry: journal line %d: %w", line, err)
		}
		out = append(out, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("telemetry: journal read: %w", err)
	}
	return out, nil
}
