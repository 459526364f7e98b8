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
	// platform's feature width, nf.
	refinementAfter int
	nf              int

	current    platform.ResourceVector
	hasCurrent bool
	samples    int
	utilSum    float64
	powerSum   float64

	// predTable memoises PredictedTable for the table predFrom. The table is
	// replaced, never edited, whenever it changes (SeedTable, Record), so
	// between new measurements the pointer — and with it the models and the
	// predictions — is unchanged, and the allocator reuses the same table
	// (and its memoised facts) across reallocations.
	predTable, predFrom *opoint.Table
}

// New creates an explorer for the application on the given platform.
func New(plat *platform.Platform, app string, cfg Config) *Explorer {
	cfg = cfg.withDefaults()
	// A platform whose whole configuration space is smaller than the stable
	// threshold is stable once the space is exhausted (the Odroid has only
	// 24 coarse configurations).
	if space := platform.SpaceWithin(plat, nil).Len(); space < cfg.StableAfter {
		cfg.StableAfter = space
	}
	nf := len(platform.NewResourceVector(plat).Features())
	return &Explorer{
		plat:            plat,
		cfg:             cfg,
		table:           &opoint.Table{App: app, Platform: plat.Name},
		refinementAfter: regress.NewPolynomial(2).MinSamples(nf),
		nf:              nf,
	}
}

// SeedTable merges offline-generated operating points (e.g. from a
// description file) into the explorer's table as measured points, and
// reports whether the table changed. A change replaces the table; an
// identical re-upload allocates nothing, and Table and PredictedTable keep
// returning the same tables.
func (e *Explorer) SeedTable(t *opoint.Table) bool {
	old := e.table
	e.table = old.Merge(t.Points, true)
	return e.table != old
}

// Table returns the operating-point table (measured points only). It is
// shared and never written: a change replaces it.
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
	return e.current, true
}

// Next selects the next configuration to measure, bounded by the per-kind
// core caps the allocator granted this application. The chosen configuration
// becomes Current until enough measurements are recorded.
func (e *Explorer) Next(caps []int) (platform.ResourceVector, error) {
	candidates := e.candidates(caps)
	if candidates.n == 0 {
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
	e.current = chosen
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
			Seq:    candidates.n,
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
	e.table = e.table.Merge([]opoint.OperatingPoint{{
		Vector:   e.current,
		Utility:  e.utilSum / n,
		Power:    e.powerSum / n,
		Measured: true,
		Samples:  e.samples,
	}}, false)
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
// repeated calls (one per reallocation) return the same table. Like Table,
// it is shared and never written.
func (e *Explorer) PredictedTable() *opoint.Table {
	if e.predFrom != e.table {
		e.predTable, e.predFrom = e.predictedTable(), e.table
	}
	return e.predTable
}

// predictedTable builds the prediction table uncached. With nothing to
// predict — the initial stage, a table covering the whole space, or a failed
// fit — it is the table itself; otherwise a new table holding the table's
// points, vectors shared, and the predictions.
func (e *Explorer) predictedTable() *opoint.Table {
	if e.Stage() == StageInitial {
		return e.table
	}
	missing := e.candidates(nil)
	if missing.n == 0 {
		return e.table
	}
	uModel, pModel, err := fitOn(e.cfg.Model, e.measuredPoints())
	if err != nil {
		return e.table
	}
	out := &opoint.Table{App: e.table.App, Platform: e.table.Platform,
		Points: append(make([]opoint.OperatingPoint, 0, len(e.table.Points)+missing.n), e.table.Points...)}
	// The predictions' vectors are carved from two arrays sized for them, so
	// a cached prediction pins those arrays, not a table-sized one.
	kinds := len(e.plat.Kinds)
	rows, counts := make([][]int, missing.n*kinds), make([]int, missing.n*e.nf)
	for w := e.walk(missing); missing.next(&w); {
		u, uErr := uModel.Predict(w.Features)
		p, pErr := pModel.Predict(w.Features)
		if uErr != nil || pErr != nil {
			continue
		}
		if p < 0 {
			p = 0
		}
		rv := platform.ResourceVector{Counts: rows[:0:kinds]}
		rows = rows[kinds:]
		for _, c := range w.Vector.Counts {
			rv.Counts = append(rv.Counts, append(counts[:0:len(c)], c...))
			counts = counts[len(c):]
		}
		out.Points = append(out.Points, opoint.OperatingPoint{Vector: rv, Utility: u, Power: p})
	}
	return out
}

// candidates is the space within caps less the positions skip marks. It
// holds positions, never vectors, and lives for one call.
type candidates struct {
	platform.Space
	skip []bool
	n    int // configurations not skipped
}

// candidates returns the space within caps less the table's points, all
// of them measured (Record and SeedTable are the table's only writers).
func (e *Explorer) candidates(caps []int) candidates {
	c := candidates{Space: platform.SpaceWithin(e.plat, caps)}
	c.n = c.Len()
	c.skip = make([]bool, c.n)
	for _, op := range e.table.Points {
		if i := c.Position(op.Vector); i >= 0 && !c.skip[i] {
			c.skip[i] = true
			c.n--
		}
	}
	return c
}

// walk starts a walk of c on fresh scratch, to be advanced by c.next; a
// vector kept past a step is copied out (keep).
func (e *Explorer) walk(c candidates) platform.Walk {
	return c.Walk(platform.NewResourceVector(e.plat), make([]float64, e.nf))
}

// next advances w to the next configuration c does not skip.
func (c *candidates) next(w *platform.Walk) bool {
	for w.Next() {
		if !c.skip[w.Index()] {
			return true
		}
	}
	return false
}

// keep copies the walk's current vector into dst, which has its shape.
func keep(dst platform.ResourceVector, w *platform.Walk) {
	for i, c := range w.Vector.Counts {
		copy(dst.Counts[i], c)
	}
}

// farthestPoint implements the initial-stage heuristic: the candidate whose
// feature vector maximises the minimum distance to all measured
// configurations (the zero configuration counts as measured — it anchors the
// space).
func (e *Explorer) farthestPoint(c candidates) platform.ResourceVector {
	measured := append([][]float64{make([]float64, e.nf)}, e.measuredPoints().xs...)
	best := platform.NewResourceVector(e.plat)
	bestDist := -1.0
	for w := e.walk(c); c.next(&w); {
		minDist := math.Inf(1)
		for _, m := range measured {
			minDist = min(minDist, dist(w.Features, m))
		}
		if minDist > bestDist {
			bestDist = minDist
			keep(best, &w)
		}
	}
	return best
}

// refinementPoint implements the refinement-stage heuristic: first target
// configurations with negative predictions (largest geometric mean of the
// negative deviations), otherwise the largest disagreement between the
// primary model and a zero-anchored auxiliary model (§5.3). Both are scored
// in one walk, the primary models evaluated once per candidate; the
// auxiliary model is consulted only until a negative prediction turns up,
// since that candidate wins regardless.
func (e *Explorer) refinementPoint(c candidates) (platform.ResourceVector, error) {
	measured := e.measuredPoints()
	uPrimary, pPrimary, err := fitOn(e.cfg.Model, measured)
	if err != nil {
		return platform.ResourceVector{}, err
	}
	uAux, pAux, auxErr := fitOn(e.cfg.Model, measured.anchored(e.nf))

	negBest, auxBest := platform.NewResourceVector(e.plat), platform.NewResourceVector(e.plat)
	negScore, auxScore := 0.0, -1.0
	found := false
	for w := e.walk(c); c.next(&w); {
		u1, err1 := uPrimary.Predict(w.Features)
		p1, err2 := pPrimary.Predict(w.Features)
		if err1 != nil || err2 != nil {
			continue
		}
		// 1) Negative-prediction repair.
		if negU, negP := max(0, -u1), max(0, -p1); negU != 0 || negP != 0 {
			if score := mathx.GeoMean([]float64{negU, negP}); score > negScore {
				negScore = score
				keep(negBest, &w)
				found = true
			}
		}
		// 2) Disagreement with the zero-anchored auxiliary model.
		if found || auxErr != nil {
			continue
		}
		u2, err3 := uAux.Predict(w.Features)
		p2, err4 := pAux.Predict(w.Features)
		if err3 != nil || err4 != nil {
			continue
		}
		if score := mathx.GeoMean([]float64{math.Abs(u1 - u2), math.Abs(p1 - p2)}); score > auxScore {
			auxScore = score
			keep(auxBest, &w)
		}
	}
	switch {
	case found:
		return negBest, nil
	case auxErr != nil:
		return platform.ResourceVector{}, auxErr
	case auxScore < 0:
		return platform.ResourceVector{}, ErrNoCandidates
	}
	return auxBest, nil
}

// samples are measured points as regression inputs: features, utilities
// and powers.
type samples struct {
	xs     [][]float64
	us, ps []float64
}

func (e *Explorer) measuredPoints() samples {
	var s samples
	for _, op := range e.table.Points {
		if op.Measured {
			s.xs = append(s.xs, op.Vector.Features())
			s.us = append(s.us, op.Utility)
			s.ps = append(s.ps, op.Power)
		}
	}
	return s
}

// anchored returns s plus the zero configuration at zero utility and power,
// leaving s as it was.
func (s samples) anchored(nf int) samples {
	n := len(s.xs)
	return samples{append(s.xs[:n:n], make([]float64, nf)), append(s.us[:n:n], 0), append(s.ps[:n:n], 0)}
}

func fitOn(factory regress.Factory, s samples) (utility, power regress.Model, err error) {
	if len(s.xs) == 0 {
		return nil, nil, regress.ErrTooFewSamples
	}
	uModel := factory()
	if err := uModel.Fit(s.xs, s.us); err != nil {
		return nil, nil, fmt.Errorf("explore: utility model: %w", err)
	}
	pModel := factory()
	if err := pModel.Fit(s.xs, s.ps); err != nil {
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
