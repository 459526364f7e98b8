package explore

import (
	"reflect"
	"testing"

	"github.com/harp-rm/harp/internal/opoint"
	"github.com/harp-rm/harp/internal/platform"
	"github.com/harp-rm/harp/internal/regress"
	"github.com/harp-rm/harp/internal/workload"
)

// refPredictedTable is the eager form predictedTable replaced: fit both
// models first, then predict every configuration the table lacks.
func refPredictedTable(e *Explorer) *opoint.Table {
	out := e.table.Clone()
	if e.Stage() == StageInitial {
		return out
	}
	uModel, pModel, err := e.fitModels(e.measuredPoints())
	if err != nil {
		return out
	}
	known := make(map[string]bool, len(e.table.Points))
	for _, op := range e.table.Points {
		known[op.Vector.Key()] = true
	}
	for _, rv := range platform.EnumerateVectors(e.plat, 0) {
		if known[rv.Key()] {
			continue
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

// countingPoly is the default degree-2 model, counting the fits it makes.
type countingPoly struct {
	regress.Model
	fits *int
}

func (m countingPoly) Fit(x [][]float64, y []float64) error {
	*m.fits++
	return m.Model.Fit(x, y)
}

// TestPredictedTableMatchesEagerFit grows a table point by point through
// every stage, on the Odroid and on Raptor Lake, and requires the lazy table
// to equal the eager reference after each point; the table that covers the
// Odroid's whole space must come back without a fit.
func TestPredictedTableMatchesEagerFit(t *testing.T) {
	prof := &workload.Profile{
		Name: "x", Adaptivity: workload.Scalable, WorkGI: 100,
		MemBound: 0.3, SerialFrac: 0.02, DynamicLoad: true, Wait: workload.Block,
	}
	for _, plat := range []*platform.Platform{platform.OdroidXU3(), platform.RaptorLake()} {
		fits := 0
		e := New(plat, "x", Config{
			MeasurementsPerPoint: 1,
			StableAfter:          14,
			Model:                func() regress.Model { return countingPoly{regress.NewPolynomial(2), &fits} },
		})
		caps := make([]int, len(plat.Kinds))
		for i, k := range plat.Kinds {
			caps[i] = k.Count
		}
		stages := map[Stage]bool{}
		for i := 0; i < 18; i++ {
			measurePoint(t, e, prof, caps)
			stages[e.Stage()] = true
			if got, want := e.predictedTable(), refPredictedTable(e); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s after %d points (%v): lazy table differs from the eager fit", plat.Name, i+1, e.Stage())
			}
		}
		if len(stages) != 3 {
			t.Fatalf("%s: compared in stages %v, want all three", plat.Name, stages)
		}

		if plat.Name != platform.OdroidXU3().Name {
			continue
		}
		full := &opoint.Table{App: "x", Platform: plat.Name}
		for _, rv := range platform.EnumerateVectors(plat, 0) {
			ev := workload.EvaluateVector(plat, prof, rv)
			full.Upsert(opoint.OperatingPoint{Vector: rv, Utility: ev.Utility, Power: ev.PowerWatts})
		}
		e.SeedTable(full)
		fits = 0
		got := e.predictedTable()
		if fits != 0 {
			t.Fatalf("a table covering the space fitted %d models, want 0", fits)
		}
		if want := refPredictedTable(e); !reflect.DeepEqual(got, want) {
			t.Fatal("covering table: lazy table differs from the eager fit")
		}
		if !reflect.DeepEqual(got, e.table.Clone()) {
			t.Fatal("covering table: the prediction is not the table's clone")
		}
	}
}
