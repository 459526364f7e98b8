package explore

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"github.com/harp-rm/harp/internal/check"
	"github.com/harp-rm/harp/internal/mathx"
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
	uModel, pModel, err := fitOn(e.cfg.Model, e.measuredPoints())
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
		if got != e.Table() {
			t.Fatal("covering table: the prediction is not the table itself")
		}
	}
}

// refUnmeasured is unmeasured as it was before the walk: the space within
// caps materialised, less the vectors whose Key a measured point has.
func refUnmeasured(e *Explorer, caps []int) []platform.ResourceVector {
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

// refFarthestPoint is farthestPoint over a materialised candidate list.
func refFarthestPoint(e *Explorer, candidates []platform.ResourceVector) platform.ResourceVector {
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

// refRefinementPoint is refinementPoint as it was before the walk: one pass
// for negative predictions, then, if none, the auxiliary model fitted and a
// second pass evaluating the primary models again. It also names the
// heuristic that chose.
func refRefinementPoint(e *Explorer, candidates []platform.ResourceVector) (platform.ResourceVector, string, error) {
	measured := e.measuredPoints()
	uPrimary, pPrimary, err := fitOn(e.cfg.Model, measured)
	if err != nil {
		return platform.ResourceVector{}, "", err
	}

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
		return best, "negative", nil
	}

	uAux, pAux, err := fitOn(e.cfg.Model, measured.anchored(e.nf))
	if err != nil {
		return platform.ResourceVector{}, "", err
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
		return platform.ResourceVector{}, "", ErrNoCandidates
	}
	return best, "disagreement", nil
}

// oddFitPoly is the degree-2 model refusing to fit an even number of
// samples.
type oddFitPoly struct{ regress.Model }

func (m oddFitPoly) Fit(x [][]float64, y []float64) error {
	if len(x)%2 == 0 {
		return regress.ErrTooFewSamples
	}
	return m.Model.Fit(x, y)
}

// refNext is Next's choice on the reference functions, without Next's side
// effects: the chosen vector, the candidate count and the heuristic that
// chose.
func refNext(e *Explorer, caps []int) (platform.ResourceVector, int, string, error) {
	candidates := refUnmeasured(e, caps)
	if len(candidates) == 0 {
		return platform.ResourceVector{}, 0, "", ErrNoCandidates
	}
	if e.Stage() == StageInitial || e.table.MeasuredCount() == 0 {
		return refFarthestPoint(e, candidates), len(candidates), "farthest", nil
	}
	chosen, how, err := refRefinementPoint(e, candidates)
	if err != nil {
		return refFarthestPoint(e, candidates), len(candidates), "fallback", nil
	}
	return chosen, len(candidates), how, nil
}

// TestNextMatchesReference drives explorers on Raptor Lake, the Odroid and
// generated platforms through recorded measurement sequences — the workload
// model's values with seeded noise, so the polynomial sometimes predicts
// negative values — under caps that shrink mid-run and grow back, and
// requires each Next to choose the reference's configuration from the
// reference's number of candidates, and the predicted table and its memo to
// equal the eager reference after each point. A model that fails to fit an
// even number of samples covers the fallback to the farthest point, both
// when the primary fit fails and when only the auxiliary one does. Every
// heuristic must have been compared.
func TestNextMatchesReference(t *testing.T) {
	plats := []*platform.Platform{platform.RaptorLake(), platform.OdroidXU3()}
	for seed := int64(1); seed <= 4; seed++ {
		p, _ := check.Gen(seed, check.GenConfig{MaxSMT: 3})
		plats = append(plats, p)
	}
	models := []regress.Factory{nil, func() regress.Model { return oddFitPoly{regress.NewPolynomial(2)} }}
	prof := &workload.Profile{
		Name: "x", Adaptivity: workload.Scalable, WorkGI: 100,
		MemBound: 0.4, SerialFrac: 0.05, DynamicLoad: true, Wait: workload.Block,
	}
	seen := map[string]bool{}
	for pi, plat := range plats {
		for mi, model := range models {
			e := New(plat, "x", Config{MeasurementsPerPoint: 2, StableAfter: 30, Model: model})
			r := rand.New(rand.NewSource(int64(100*pi + mi)))
			full := make([]int, len(plat.Kinds))
			for i, k := range plat.Kinds {
				full[i] = k.Count
			}
			for step := 0; step < 40; step++ {
				caps := full
				switch {
				case step >= 30:
					caps = nil
				case step >= 20:
					caps = []int{1}
				case step >= 12:
					caps = make([]int, len(full))
					for i, c := range full {
						caps[i] = (c + 1) / 2
					}
				}
				want, n, how, wantErr := refNext(e, caps)
				if got := e.candidates(caps).n; got != n {
					t.Fatalf("%s model %d step %d: %d candidates, reference %d", plat.Name, mi, step, got, n)
				}
				got, err := e.Next(caps)
				if !errors.Is(err, wantErr) || !reflect.DeepEqual(got, want) {
					t.Fatalf("%s model %d step %d (%s): Next chose %v (%v), reference %v (%v)",
						plat.Name, mi, step, how, got, err, want, wantErr)
				}
				if err != nil {
					continue
				}
				seen[how] = true
				ev := workload.EvaluateVector(plat, prof, got)
				for done := false; !done; {
					noise := 1 + 0.3*(r.Float64()-0.5)
					if done, err = e.Record(ev.Utility*noise, ev.PowerWatts/noise); err != nil {
						t.Fatal(err)
					}
				}
				want2 := refPredictedTable(e)
				if !reflect.DeepEqual(e.predictedTable(), want2) || !reflect.DeepEqual(e.PredictedTable(), want2) {
					t.Fatalf("%s model %d step %d: predicted table differs from the reference", plat.Name, mi, step)
				}
			}
		}
	}
	for _, how := range []string{"farthest", "negative", "disagreement", "fallback"} {
		if !seen[how] {
			t.Errorf("no choice by %q was compared (compared: %v)", how, seen)
		}
	}
}
