package explore

import (
	"errors"
	"testing"

	"github.com/harp-rm/harp/internal/opoint"
	"github.com/harp-rm/harp/internal/platform"
	"github.com/harp-rm/harp/internal/regress"
	"github.com/harp-rm/harp/internal/workload"
)

func odroidExplorer(cfg Config) *Explorer {
	return New(platform.OdroidXU3(), "app", cfg)
}

// measurePoint drives one full Next/Record cycle using the workload model as
// ground truth.
func measurePoint(t *testing.T, e *Explorer, prof *workload.Profile, caps []int) platform.ResourceVector {
	t.Helper()
	rv, err := e.Next(caps)
	if err != nil {
		t.Fatalf("Next: %v", err)
	}
	ev := workload.EvaluateVector(e.plat, prof, rv)
	for {
		done, err := e.Record(ev.Utility, ev.PowerWatts)
		if err != nil {
			t.Fatalf("Record: %v", err)
		}
		if done {
			break
		}
	}
	return rv
}

func TestStageProgression(t *testing.T) {
	plat := platform.OdroidXU3()
	prof := &workload.Profile{
		Name: "x", Adaptivity: workload.Scalable, WorkGI: 100,
		MemBound: 0.3, DynamicLoad: true, Wait: workload.Block,
	}
	e := New(plat, "x", Config{MeasurementsPerPoint: 2, StableAfter: 10})
	if got := e.Stage(); got != StageInitial {
		t.Fatalf("fresh stage = %v, want initial", got)
	}
	caps := []int{4, 4}
	seen := make(map[string]bool)
	for i := 0; i < 10; i++ {
		rv := measurePoint(t, e, prof, caps)
		if seen[rv.Key()] {
			t.Errorf("configuration %v measured twice", rv)
		}
		seen[rv.Key()] = true
	}
	if got := e.Stage(); got != StageStable {
		t.Fatalf("stage after 10 points = %v, want stable", got)
	}
	if got := e.Table().MeasuredCount(); got != 10 {
		t.Errorf("measured count = %d, want 10", got)
	}
}

func TestNextRespectsBound(t *testing.T) {
	e := odroidExplorer(Config{MeasurementsPerPoint: 1})
	caps := []int{1, 2}
	for i := 0; i < 5; i++ {
		rv, err := e.Next(caps)
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		if rv.Cores(0) > 1 || rv.Cores(1) > 2 {
			t.Fatalf("candidate %v exceeds caps %v", rv, caps)
		}
		if _, err := e.Record(1, 1); err != nil {
			t.Fatal(err)
		}
	}
}

func TestNextExhaustsCandidates(t *testing.T) {
	e := odroidExplorer(Config{MeasurementsPerPoint: 1, StableAfter: 100})
	caps := []int{1, 1} // 3 non-zero configs: (1,0), (0,1), (1,1)
	for i := 0; i < 3; i++ {
		if _, err := e.Next(caps); err != nil {
			t.Fatalf("Next %d: %v", i, err)
		}
		if _, err := e.Record(1, 1); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.Next(caps); !errors.Is(err, ErrNoCandidates) {
		t.Fatalf("err = %v, want ErrNoCandidates", err)
	}
}

func TestFirstPointIsFarthestFromZero(t *testing.T) {
	e := odroidExplorer(Config{})
	rv, err := e.Next([]int{4, 4})
	if err != nil {
		t.Fatal(err)
	}
	// The farthest point from the zero anchor is the full configuration.
	if rv.Cores(0) != 4 || rv.Cores(1) != 4 {
		t.Errorf("first exploration point = %v, want the full bound [4|4]", rv)
	}
}

func TestRecordWithoutNext(t *testing.T) {
	e := odroidExplorer(Config{})
	if _, err := e.Record(1, 1); err == nil {
		t.Fatal("Record without Next accepted")
	}
}

func TestAbortDropsCurrent(t *testing.T) {
	e := odroidExplorer(Config{MeasurementsPerPoint: 5})
	if _, err := e.Next([]int{4, 4}); err != nil {
		t.Fatal(err)
	}
	if _, ok := e.Current(); !ok {
		t.Fatal("no current after Next")
	}
	e.Abort()
	if _, ok := e.Current(); ok {
		t.Fatal("current survived Abort")
	}
	if _, err := e.Record(1, 1); err == nil {
		t.Fatal("Record after Abort accepted")
	}
}

func TestRecordAveragesMeasurements(t *testing.T) {
	e := odroidExplorer(Config{MeasurementsPerPoint: 4})
	rv, err := e.Next([]int{4, 4})
	if err != nil {
		t.Fatal(err)
	}
	vals := []float64{10, 12, 8, 10}
	for i, v := range vals {
		done, err := e.Record(v, v/2)
		if err != nil {
			t.Fatal(err)
		}
		if (i == len(vals)-1) != done {
			t.Fatalf("done = %v at sample %d", done, i)
		}
	}
	op, ok := e.Table().Lookup(rv)
	if !ok {
		t.Fatal("measured point missing from table")
	}
	if op.Utility != 10 || op.Power != 5 {
		t.Errorf("point = (%g, %g), want (10, 5)", op.Utility, op.Power)
	}
	if op.Samples != 4 || !op.Measured {
		t.Errorf("point meta = %+v", op)
	}
}

func TestSeedTableSkipsToStable(t *testing.T) {
	plat := platform.OdroidXU3()
	prof := &workload.Profile{
		Name: "x", Adaptivity: workload.Scalable, WorkGI: 100,
		MemBound: 0.3, DynamicLoad: true, Wait: workload.Block,
	}
	offline := &opoint.Table{App: "x", Platform: plat.Name}
	for _, rv := range platform.EnumerateVectors(plat, 0) {
		ev := workload.EvaluateVector(plat, prof, rv)
		offline.Upsert(opoint.OperatingPoint{Vector: rv, Utility: ev.Utility, Power: ev.PowerWatts})
	}
	e := New(plat, "x", Config{})
	e.SeedTable(offline)
	if got := e.Stage(); got != StageStable {
		t.Fatalf("stage after seeding %d points = %v, want stable", offline.MeasuredCount(), got)
	}
}

// PredictedTable must cover the whole platform once a model is available and
// approximate the true surface decently.
func TestPredictedTableCoversPlatform(t *testing.T) {
	plat := platform.OdroidXU3()
	prof := &workload.Profile{
		Name: "x", Adaptivity: workload.Scalable, WorkGI: 100,
		MemBound: 0.3, SerialFrac: 0.02, DynamicLoad: true, Wait: workload.Block,
	}
	e := New(plat, "x", Config{MeasurementsPerPoint: 1})
	caps := []int{4, 4}
	for i := 0; i < 8; i++ { // enough for refinement on 2 features (6 monomials)
		measurePoint(t, e, prof, caps)
	}
	if e.Stage() != StageRefinement {
		t.Fatalf("stage = %v, want refinement", e.Stage())
	}
	full := e.PredictedTable()
	all := platform.EnumerateVectors(plat, 0)
	if len(full.Points) != len(all) {
		t.Fatalf("predicted table has %d points, want %d", len(full.Points), len(all))
	}
	// Check prediction quality on a handful of configurations.
	var worst float64
	for _, rv := range all {
		op, ok := full.Lookup(rv)
		if !ok {
			t.Fatalf("missing prediction for %v", rv)
		}
		truth := workload.EvaluateVector(plat, prof, rv)
		if truth.Utility > 0 {
			rel := (op.Utility - truth.Utility) / truth.Utility
			if rel < 0 {
				rel = -rel
			}
			if rel > worst {
				worst = rel
			}
		}
		if op.Power < 0 {
			t.Errorf("negative power prediction for %v", rv)
		}
	}
	if worst > 0.6 {
		t.Errorf("worst relative utility prediction error = %.0f%%, want < 60%%", 100*worst)
	}
}

// In the initial stage the allocator sees only measured points.
func TestPredictedTableInitialStage(t *testing.T) {
	e := odroidExplorer(Config{MeasurementsPerPoint: 1})
	measurePoint(t, e, &workload.Profile{
		Name: "x", Adaptivity: workload.Scalable, WorkGI: 100,
		DynamicLoad: true, Wait: workload.Block,
	}, []int{4, 4})
	tbl := e.PredictedTable()
	if got := len(tbl.Points); got != 1 {
		t.Fatalf("initial-stage predicted table has %d points, want 1", got)
	}
}

// PredictedTable is one table between mutations of the explorer's own table
// and a fresh one after SeedTable and after a committed Record; a sample
// that does not complete a point leaves it alone.
func TestPredictedTableMemo(t *testing.T) {
	plat := platform.OdroidXU3()
	e := New(plat, "x", Config{MeasurementsPerPoint: 2})
	empty := e.PredictedTable()
	if e.PredictedTable() != empty {
		t.Fatal("PredictedTable rebuilt without a mutation")
	}

	seed := &opoint.Table{App: "x", Platform: plat.Name}
	seed.Upsert(opoint.OperatingPoint{Vector: platform.EnumerateVectors(plat, 0)[0], Utility: 3, Power: 1})
	e.SeedTable(seed)
	seeded := e.PredictedTable()
	if seeded == empty || len(seeded.Points) != 1 {
		t.Fatalf("after SeedTable: same table %v, %d points; want a fresh 1-point table", seeded == empty, len(seeded.Points))
	}

	if _, err := e.Next([]int{4, 4}); err != nil {
		t.Fatal(err)
	}
	if done, err := e.Record(5, 2); err != nil || done {
		t.Fatalf("first of two samples: done %v, err %v", done, err)
	}
	if e.PredictedTable() != seeded {
		t.Fatal("an uncommitted sample rebuilt the prediction")
	}
	if done, err := e.Record(5, 2); err != nil || !done {
		t.Fatalf("second sample: done %v, err %v", done, err)
	}
	recorded := e.PredictedTable()
	if recorded == seeded || len(recorded.Points) != 2 {
		t.Fatalf("after a committed Record: same table %v, %d points; want a fresh 2-point table", recorded == seeded, len(recorded.Points))
	}
	if e.PredictedTable() != recorded {
		t.Fatal("PredictedTable rebuilt without a mutation")
	}
}

func TestStageString(t *testing.T) {
	tests := []struct {
		give Stage
		want string
	}{
		{StageInitial, "initial"},
		{StageRefinement, "refinement"},
		{StageStable, "stable"},
		{Stage(7), "stage(7)"},
	}
	for _, tt := range tests {
		if got := tt.give.String(); got != tt.want {
			t.Errorf("%d: %q, want %q", int(tt.give), got, tt.want)
		}
	}
}

// negModel predicts a negative utility for one specific configuration and
// sane values elsewhere — rigging the refinement stage's first heuristic.
type negModel struct {
	fitted bool
}

func (m *negModel) Name() string { return "neg" }

func (m *negModel) Fit(x [][]float64, y []float64) error {
	m.fitted = true
	return nil
}

func (m *negModel) Predict(x []float64) (float64, error) {
	if !m.fitted {
		return 0, regress.ErrNotFitted
	}
	// The [4|4] configuration (features 4,4 on the Odroid) gets a negative
	// prediction; everything else a positive one.
	if x[0] == 4 && x[1] == 4 {
		return -100, nil
	}
	return 10, nil
}

// The refinement heuristic must prioritise configurations with negative
// predictions (§5.3).
func TestRefinementTargetsNegativePredictions(t *testing.T) {
	plat := platform.OdroidXU3()
	e := New(plat, "x", Config{
		MeasurementsPerPoint: 1,
		RefinementAfter:      2,
		StableAfter:          20,
		Model:                func() regress.Model { return &negModel{} },
	})
	caps := []int{4, 4}
	// Two quick measurements to enter the refinement stage, steering away
	// from the rigged configuration (the farthest-point stage would pick it
	// first otherwise).
	for _, key := range []string{"1|0", "0|1"} {
		rv, err := platform.ParseKey(plat, key)
		if err != nil {
			t.Fatal(err)
		}
		e.table.Upsert(opoint.OperatingPoint{Vector: rv, Utility: 5, Power: 1, Measured: true})
	}
	if e.Stage() != StageRefinement {
		t.Fatalf("stage = %v, want refinement", e.Stage())
	}
	rv, err := e.Next(caps)
	if err != nil {
		t.Fatal(err)
	}
	if rv.Key() != "4|4" {
		t.Errorf("refinement picked %s, want the negative-prediction config 4|4", rv.Key())
	}
}
