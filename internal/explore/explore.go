// Package explore implements HARP's runtime exploration of operating points
// (§5.3): a per-application state machine that matures through three stages
// (initial → refinement → stable), choosing which configuration to measure
// next, folding 50 ms measurements into operating points, and predicting
// characteristics of unmeasured configurations with a regression model
// (degree-2 polynomial by default, per §5.2).
package explore

import (
	"errors"
	"fmt"
	"math"

	"github.com/harp-rm/harp/internal/mathx"
	"github.com/harp-rm/harp/internal/opoint"
	"github.com/harp-rm/harp/internal/platform"
	"github.com/harp-rm/harp/internal/regress"
	"github.com/harp-rm/harp/internal/telemetry"
)

// Stage is the maturity of an application's operating-point table (§5.3).
type Stage int

// Stage values.
const (
	// StageInitial has too few measured points for even a preliminary model;
	// measurements are spread for diversity (farthest-point heuristic).
	StageInitial Stage = iota + 1
	// StageRefinement has a preliminary model that is still imprecise;
	// measurements target model anomalies and disagreements.
	StageRefinement
	// StageStable has enough explored configurations for reliable
	// approximation; the application simply runs on its allocation.
	StageStable
)

// String implements fmt.Stringer.
func (s Stage) String() string {
	switch s {
	case StageInitial:
		return "initial"
	case StageRefinement:
		return "refinement"
	case StageStable:
		return "stable"
	default:
		return fmt.Sprintf("stage(%d)", int(s))
	}
}

// MarshalJSON renders the stage by name, so session listings serialized for
// harpctl read "stable" rather than a constant's value.
func (s Stage) MarshalJSON() ([]byte, error) {
	return []byte(`"` + s.String() + `"`), nil
}

// ErrNoCandidates is returned when no unmeasured configuration fits within
// the exploration bound.
var ErrNoCandidates = errors.New("explore: no candidate configurations within bound")

// Config tunes an Explorer. Zero values select the paper's parameters.
type Config struct {
	// MeasurementsPerPoint is how many samples are folded into one operating
	// point before moving on (paper: 20 at 50 ms intervals).
	MeasurementsPerPoint int
	// StableAfter is the number of distinct measured configurations at which
	// the application enters the stable stage (paper: 25).
	StableAfter int
	// Model constructs the regression models for utility and power.
	// Nil selects degree-2 polynomial regression.
	Model regress.Factory
	// Tracer receives EvExplorationStep/EvTableUpdated events (nil disables).
	// Explorers are per application, so the events carry App, not Instance.
	Tracer *telemetry.Tracer
}

func (c Config) withDefaults() Config {
	if c.MeasurementsPerPoint <= 0 {
		c.MeasurementsPerPoint = 20
	}
	if c.StableAfter <= 0 {
		c.StableAfter = 25
	}
	if c.Model == nil {
		c.Model = func() regress.Model { return regress.NewPolynomial(2) }
	}
	return c
}

// Explorer drives runtime exploration for one application.
type Explorer struct {
	plat  *platform.Platform
	cfg   Config
	table *opoint.Table
	// refinementAfter is the number of measured points needed to fit a
	// preliminary model: enough to determine a degree-2 fit on the
	// platform's feature width.
	refinementAfter int

	current    platform.ResourceVector
	hasCurrent bool
	samples    int
	utilSum    float64
	powerSum   float64

	// predTable memoises PredictedTable until the explorer's own table
	// changes: between new measurements the models, and hence the
	// predictions, are unchanged, so the allocator can reuse the same table
	// (and its memoised facts) across reallocations. A SeedTable that changed
	// the table and a committed Record — the only writers of the table —
	// reset it to nil.
	predTable *opoint.Table
}

// New creates an explorer for the application on the given platform.
func New(plat *platform.Platform, app string, cfg Config) *Explorer {
	cfg = cfg.withDefaults()
	// A platform whose whole configuration space is smaller than the stable
	// threshold is stable once the space is exhausted (the Odroid has only
	// 24 coarse configurations).
	if space := len(platform.EnumerateVectors(plat, 0)); space < cfg.StableAfter {
		cfg.StableAfter = space
	}
	nf := len(platform.NewResourceVector(plat).Features())
	return &Explorer{
		plat:            plat,
		cfg:             cfg,
		table:           &opoint.Table{App: app, Platform: plat.Name},
		refinementAfter: regress.NewPolynomial(2).MinSamples(nf),
	}
}

// SeedTable merges offline-generated operating points (e.g. from a
// description file) into the explorer's table as measured points, and
// reports whether the table changed. An identical re-upload changes nothing:
// PredictedTable keeps returning the same table.
func (e *Explorer) SeedTable(t *opoint.Table) bool {
	if !e.table.UpsertAll(t.Points, true) {
		return false
	}
	e.predTable = nil
	return true
}

// Table returns the live operating-point table (measured points only).
func (e *Explorer) Table() *opoint.Table { return e.table }

// Stage returns the application's maturity stage. Once stable, an
// application never regresses (§6.5: refinement continues but allocation
// treats it as stable).
func (e *Explorer) Stage() Stage {
	n := e.table.MeasuredCount()
	switch {
	case n >= e.cfg.StableAfter:
		return StageStable
	case n >= e.refinementAfter:
		return StageRefinement
	default:
		return StageInitial
	}
}

// Current returns the configuration currently under measurement.
func (e *Explorer) Current() (platform.ResourceVector, bool) {
	if !e.hasCurrent {
		return platform.ResourceVector{}, false
	}
	return e.current.Clone(), true
}

// Next selects the next configuration to measure, bounded by the per-kind
// core caps the allocator granted this application. The chosen configuration
// becomes Current until enough measurements are recorded.
func (e *Explorer) Next(caps []int) (platform.ResourceVector, error) {
	candidates := e.unmeasured(caps)
	if len(candidates) == 0 {
		return platform.ResourceVector{}, ErrNoCandidates
	}

	var chosen platform.ResourceVector
	if e.Stage() == StageInitial || e.table.MeasuredCount() == 0 {
		chosen = e.farthestPoint(candidates)
	} else {
		var err error
		chosen, err = e.refinementPoint(candidates)
		if err != nil {
			chosen = e.farthestPoint(candidates)
		}
	}
	e.current = chosen.Clone()
	e.hasCurrent = true
	e.samples = 0
	e.utilSum = 0
	e.powerSum = 0
	if e.cfg.Tracer.Enabled() { // guard: Key() builds a string
		e.cfg.Tracer.Emit(telemetry.Event{
			Kind:   telemetry.EvExplorationStep,
			App:    e.table.App,
			Vector: chosen.Key(),
			Stage:  e.Stage().String(),
			Seq:    len(candidates),
		})
	}
	return chosen, nil
}

// Record folds one measurement (already EMA-smoothed by the monitor) into
// the current configuration. It reports true when the point is complete and
// committed to the table.
func (e *Explorer) Record(utility, power float64) (done bool, err error) {
	if !e.hasCurrent {
		return false, errors.New("explore: Record without a current configuration")
	}
	e.samples++
	e.utilSum += utility
	e.powerSum += power
	if e.samples < e.cfg.MeasurementsPerPoint {
		return false, nil
	}
	n := float64(e.samples)
	e.table.Upsert(opoint.OperatingPoint{
		Vector:   e.current.Clone(),
		Utility:  e.utilSum / n,
		Power:    e.powerSum / n,
		Measured: true,
		Samples:  e.samples,
	})
	e.predTable = nil
	if e.cfg.Tracer.Enabled() {
		e.cfg.Tracer.Emit(telemetry.Event{
			Kind:    telemetry.EvTableUpdated,
			App:     e.table.App,
			Vector:  e.current.Key(),
			Stage:   e.Stage().String(),
			Seq:     e.table.MeasuredCount(),
			Utility: e.utilSum / n,
			Power:   e.powerSum / n,
		})
	}
	e.hasCurrent = false
	return true, nil
}

// Abort drops the configuration under measurement (used when the allocator
// revokes resources mid-measurement).
func (e *Explorer) Abort() { e.hasCurrent = false }

// PredictedTable returns the table the allocator should use: all measured
// points plus model predictions for every unmeasured configuration on the
// whole platform. During the initial stage (no usable model) only measured
// points are returned.
//
// The result is memoised until the next measurement lands in the table, so
// repeated calls (one per reallocation) return the same table; callers must
// treat it as read-only.
func (e *Explorer) PredictedTable() *opoint.Table {
	if e.predTable == nil {
		e.predTable = e.predictedTable()
	}
	return e.predTable
}

// predictedTable builds the prediction table uncached. The models are fitted
// on the first configuration the table lacks, so a table that covers the
// whole space is returned as its clone without a fit.
func (e *Explorer) predictedTable() *opoint.Table {
	out := e.table.Clone()
	if e.Stage() == StageInitial {
		return out
	}
	known := make(map[string]bool, len(e.table.Points))
	for _, op := range e.table.Points {
		known[op.Vector.Key()] = true
	}
	var uModel, pModel regress.Model
	for _, rv := range platform.EnumerateVectors(e.plat, 0) {
		if known[rv.Key()] {
			continue
		}
		if uModel == nil {
			var err error
			if uModel, pModel, err = e.fitModels(e.measuredPoints()); err != nil {
				return out
			}
		}
		feats := rv.Features()
		u, uErr := uModel.Predict(feats)
		p, pErr := pModel.Predict(feats)
		if uErr != nil || pErr != nil {
			continue
		}
		if p < 0 {
			p = 0
		}
		out.Points = append(out.Points, opoint.OperatingPoint{Vector: rv, Utility: u, Power: p})
	}
	return out
}

// unmeasured lists configurations within caps that have no measured point.
func (e *Explorer) unmeasured(caps []int) []platform.ResourceVector {
	measured := make(map[string]bool, len(e.table.Points))
	for _, op := range e.table.Points {
		if op.Measured {
			measured[op.Vector.Key()] = true
		}
	}
	var out []platform.ResourceVector
	for _, rv := range platform.EnumerateVectorsWithin(e.plat, caps) {
		if measured[rv.Key()] {
			continue
		}
		out = append(out, rv)
	}
	return out
}

// farthestPoint implements the initial-stage heuristic: the candidate whose
// feature vector maximises the minimum distance to all measured
// configurations (the zero configuration counts as measured — it anchors the
// space).
func (e *Explorer) farthestPoint(candidates []platform.ResourceVector) platform.ResourceVector {
	measured := [][]float64{platform.NewResourceVector(e.plat).Features()}
	for _, op := range e.table.Points {
		if op.Measured {
			measured = append(measured, op.Vector.Features())
		}
	}
	best := candidates[0]
	bestDist := -1.0
	for _, rv := range candidates {
		feats := rv.Features()
		minDist := math.Inf(1)
		for _, m := range measured {
			minDist = math.Min(minDist, dist(feats, m))
		}
		if minDist > bestDist {
			bestDist = minDist
			best = rv
		}
	}
	return best
}

// refinementPoint implements the refinement-stage heuristic: first target
// configurations with negative predictions (largest geometric mean of the
// negative deviations), otherwise the largest disagreement between the
// primary model and a zero-anchored auxiliary model (§5.3).
func (e *Explorer) refinementPoint(candidates []platform.ResourceVector) (platform.ResourceVector, error) {
	measured := e.measuredPoints()
	uPrimary, pPrimary, err := e.fitModels(measured)
	if err != nil {
		return platform.ResourceVector{}, err
	}

	// 1) Negative-prediction repair.
	var best platform.ResourceVector
	bestScore := 0.0
	found := false
	for _, rv := range candidates {
		feats := rv.Features()
		u, uErr := uPrimary.Predict(feats)
		p, pErr := pPrimary.Predict(feats)
		if uErr != nil || pErr != nil {
			continue
		}
		negU := math.Max(0, -u)
		negP := math.Max(0, -p)
		if negU == 0 && negP == 0 {
			continue
		}
		score := mathx.GeoMean([]float64{negU, negP})
		if score > bestScore {
			bestScore = score
			best = rv
			found = true
		}
	}
	if found {
		return best, nil
	}

	// 2) Disagreement with the zero-anchored auxiliary model.
	anchored := append(measuredSamples(measured), sample{
		feats: platform.NewResourceVector(e.plat).Features(),
	})
	uAux, pAux, err := fitOn(e.cfg.Model, anchored)
	if err != nil {
		return platform.ResourceVector{}, err
	}
	bestScore = -1
	for _, rv := range candidates {
		feats := rv.Features()
		u1, err1 := uPrimary.Predict(feats)
		p1, err2 := pPrimary.Predict(feats)
		u2, err3 := uAux.Predict(feats)
		p2, err4 := pAux.Predict(feats)
		if err1 != nil || err2 != nil || err3 != nil || err4 != nil {
			continue
		}
		score := mathx.GeoMean([]float64{math.Abs(u1 - u2), math.Abs(p1 - p2)})
		if score > bestScore {
			bestScore = score
			best = rv
		}
	}
	if bestScore < 0 {
		return platform.ResourceVector{}, ErrNoCandidates
	}
	return best, nil
}

type sample struct {
	feats   []float64
	utility float64
	power   float64
}

func (e *Explorer) measuredPoints() []sample {
	var out []sample
	for _, op := range e.table.Points {
		if op.Measured {
			out = append(out, sample{feats: op.Vector.Features(), utility: op.Utility, power: op.Power})
		}
	}
	return out
}

func measuredSamples(s []sample) []sample {
	out := make([]sample, len(s))
	copy(out, s)
	return out
}

func (e *Explorer) fitModels(samples []sample) (utility, power regress.Model, err error) {
	return fitOn(e.cfg.Model, samples)
}

func fitOn(factory regress.Factory, samples []sample) (utility, power regress.Model, err error) {
	if len(samples) == 0 {
		return nil, nil, regress.ErrTooFewSamples
	}
	xs := make([][]float64, len(samples))
	us := make([]float64, len(samples))
	ps := make([]float64, len(samples))
	for i, s := range samples {
		xs[i] = s.feats
		us[i] = s.utility
		ps[i] = s.power
	}
	uModel := factory()
	if err := uModel.Fit(xs, us); err != nil {
		return nil, nil, fmt.Errorf("explore: utility model: %w", err)
	}
	pModel := factory()
	if err := pModel.Fit(xs, ps); err != nil {
		return nil, nil, fmt.Errorf("explore: power model: %w", err)
	}
	return uModel, pModel, nil
}

func dist(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return math.Sqrt(s)
}
