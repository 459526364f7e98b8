package regress

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"github.com/harp-rm/harp/internal/mathx"
	"github.com/harp-rm/harp/internal/platform"
	"github.com/harp-rm/harp/internal/workload"
)

// quadSurface is a smooth ground-truth function resembling a utility surface
// over (p1, p2, e) resource vectors.
func quadSurface(x []float64) float64 {
	return 5 + 3*x[0] + 2*x[1] + 1.5*x[2] - 0.2*x[0]*x[0] - 0.1*x[1]*x[2]
}

// sampleGrid returns all vectors of a small config space and their values.
func sampleGrid() (xs [][]float64, ys []float64) {
	for p1 := 0; p1 <= 4; p1++ {
		for p2 := 0; p2 <= 4-p1; p2++ {
			for e := 0; e <= 6; e++ {
				x := []float64{float64(p1), float64(p2), float64(e)}
				xs = append(xs, x)
				ys = append(ys, quadSurface(x))
			}
		}
	}
	return xs, ys
}

func subset(xs [][]float64, ys []float64, n int, seed int64) ([][]float64, []float64) {
	r := rand.New(rand.NewSource(seed))
	idx := r.Perm(len(xs))[:n]
	sx := make([][]float64, n)
	sy := make([]float64, n)
	for i, j := range idx {
		sx[i] = xs[j]
		sy[i] = ys[j]
	}
	return sx, sy
}

func TestRegistryNames(t *testing.T) {
	reg := Registry(1)
	want := map[string]Model{
		"poly1": NewPolynomial(1), "poly2": NewPolynomial(2), "poly3": NewPolynomial(3),
		"nn": NewNeuralNet(1), "svm": NewSVM(),
	}
	if len(reg) != len(want) {
		t.Errorf("registry holds %d factories, want %d", len(reg), len(want))
	}
	for name, m := range want {
		f, ok := reg[name]
		if !ok {
			t.Errorf("registry missing %q", name)
			continue
		}
		if got := f(); !reflect.DeepEqual(got, m) {
			t.Errorf("factory %q builds %T %+v, want %+v", name, got, got, m)
		}
	}
}

func TestPredictBeforeFit(t *testing.T) {
	for name, f := range Registry(1) {
		if _, err := f().Predict([]float64{1, 2, 3}); !errors.Is(err, ErrNotFitted) {
			t.Errorf("%s: Predict before Fit: %v, want ErrNotFitted", name, err)
		}
	}
}

func TestFitRejectsBadDesign(t *testing.T) {
	for name, f := range Registry(1) {
		m := f()
		if err := m.Fit(nil, nil); !errors.Is(err, ErrTooFewSamples) {
			t.Errorf("%s: empty fit: %v, want ErrTooFewSamples", name, err)
		}
		if err := m.Fit([][]float64{{1}, {2}}, []float64{1}); err == nil {
			t.Errorf("%s: mismatched fit accepted", name)
		}
		if err := m.Fit([][]float64{{1, 2}, {3}}, []float64{1, 2}); err == nil {
			t.Errorf("%s: ragged design accepted", name)
		}
	}
}

func TestPredictWrongWidth(t *testing.T) {
	xs, ys := sampleGrid()
	for name, f := range Registry(1) {
		m := f()
		if err := m.Fit(xs, ys); err != nil {
			t.Fatalf("%s: Fit: %v", name, err)
		}
		if _, err := m.Predict([]float64{1}); err == nil {
			t.Errorf("%s: wrong-width Predict accepted", name)
		}
	}
}

// Degree-2 polynomial must recover a quadratic surface almost exactly.
func TestPoly2RecoversQuadratic(t *testing.T) {
	xs, ys := sampleGrid()
	train, trainY := subset(xs, ys, 20, 7)
	m := NewPolynomial(2)
	if err := m.Fit(train, trainY); err != nil {
		t.Fatalf("Fit: %v", err)
	}
	preds := make([]float64, len(xs))
	for i, x := range xs {
		v, err := m.Predict(x)
		if err != nil {
			t.Fatal(err)
		}
		preds[i] = v
	}
	if mape := mathx.MAPE(ys, preds); mape > 1 {
		t.Errorf("poly2 MAPE on quadratic surface = %.2f%%, want < 1%%", mape)
	}
}

// All models should fit the training data reasonably on the full grid.
func TestAllModelsFitFullGrid(t *testing.T) {
	xs, ys := sampleGrid()
	for name, f := range Registry(3) {
		t.Run(name, func(t *testing.T) {
			m := f()
			if err := m.Fit(xs, ys); err != nil {
				t.Fatalf("Fit: %v", err)
			}
			preds := make([]float64, len(xs))
			for i, x := range xs {
				v, err := m.Predict(x)
				if err != nil {
					t.Fatal(err)
				}
				preds[i] = v
			}
			mape := mathx.MAPE(ys, preds)
			limit := 5.0
			if name == "nn" {
				limit = 20 // small nets underfit; Fig. 5 relies on this
			}
			if mape > limit {
				t.Errorf("%s full-grid MAPE = %.2f%%, want < %.0f%%", name, mape, limit)
			}
		})
	}
}

// Polynomial accuracy must improve with training-set size (the left plots of
// Fig. 5).
func TestPolyAccuracyImprovesWithData(t *testing.T) {
	xs, ys := sampleGrid()
	// Add noise so small subsets genuinely underdetermine the fit.
	r := rand.New(rand.NewSource(5))
	noisy := make([]float64, len(ys))
	for i, v := range ys {
		noisy[i] = v * (1 + 0.02*r.NormFloat64())
	}
	mapeAt := func(n int) float64 {
		var total float64
		for seed := int64(0); seed < 5; seed++ {
			train, trainY := subset(xs, noisy, n, seed)
			m := NewPolynomial(2)
			if err := m.Fit(train, trainY); err != nil {
				t.Fatalf("Fit(%d): %v", n, err)
			}
			preds := make([]float64, len(xs))
			for i, x := range xs {
				preds[i], _ = m.Predict(x)
			}
			total += mathx.MAPE(ys, preds)
		}
		return total / 5
	}
	small := mapeAt(12)
	large := mapeAt(80)
	if large >= small {
		t.Errorf("MAPE did not improve with data: %d pts → %.2f%%, %d pts → %.2f%%",
			12, small, 80, large)
	}
}

// The real utility surface of a workload must be approximated well by poly2
// from ~20 points — the paper's justification for using degree 2 (§5.2).
func TestPoly2OnWorkloadSurface(t *testing.T) {
	plat := platform.RaptorLake()
	prof, err := workload.ByName(workload.IntelApps(), "ft.C")
	if err != nil {
		t.Fatal(err)
	}
	vecs := platform.EnumerateVectors(plat, 4)
	var xs [][]float64
	var utils []float64
	for _, rv := range vecs {
		ev := workload.EvaluateVector(plat, prof, rv)
		xs = append(xs, rv.Features())
		utils = append(utils, ev.Utility)
	}
	train, trainY := subset(xs, utils, 25, 11)
	m := NewPolynomial(2)
	if err := m.Fit(train, trainY); err != nil {
		t.Fatal(err)
	}
	preds := make([]float64, len(xs))
	for i, x := range xs {
		preds[i], _ = m.Predict(x)
	}
	if mape := mathx.MAPE(utils, preds); mape > 25 {
		t.Errorf("poly2 MAPE on ft.C utility surface = %.1f%%, want < 25%%", mape)
	}
}

func TestNeuralNetDeterministicBySeed(t *testing.T) {
	xs, ys := sampleGrid()
	train, trainY := subset(xs, ys, 30, 2)
	run := func() float64 {
		m := NewNeuralNet(42)
		if err := m.Fit(train, trainY); err != nil {
			t.Fatal(err)
		}
		v, err := m.Predict([]float64{2, 1, 3})
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	if a, b := run(), run(); a != b {
		t.Errorf("NN not deterministic: %g vs %g", a, b)
	}
}

func TestSVMInterpolatesTrainingPoints(t *testing.T) {
	xs, ys := sampleGrid()
	train, trainY := subset(xs, ys, 40, 9)
	m := NewSVM()
	if err := m.Fit(train, trainY); err != nil {
		t.Fatal(err)
	}
	preds := make([]float64, len(train))
	for i, x := range train {
		preds[i], _ = m.Predict(x)
	}
	if mape := mathx.MAPE(trainY, preds); mape > 10 {
		t.Errorf("SVM training MAPE = %.2f%%, want < 10%%", mape)
	}
}

func TestParetoIndices(t *testing.T) {
	utility := []float64{10, 8, 6, 10, 2}
	power := []float64{5, 4, 2, 6, 1}
	// Front: (10,5), (8,4), (6,2), (2,1). (10,6) dominated by (10,5).
	got := ParetoIndices(utility, power)
	want := map[int]bool{0: true, 1: true, 2: true, 4: true}
	if len(got) != len(want) {
		t.Fatalf("front = %v, want indices %v", got, want)
	}
	for _, i := range got {
		if !want[i] {
			t.Errorf("unexpected front index %d", i)
		}
	}
}

func TestParetoIndicesDuplicates(t *testing.T) {
	got := ParetoIndices([]float64{5, 5}, []float64{2, 2})
	if len(got) != 1 || got[0] != 0 {
		t.Fatalf("duplicate front = %v, want [0]", got)
	}
}

func TestIGD(t *testing.T) {
	refU := []float64{0, 10}
	refP := []float64{0, 10}
	// Identical fronts → IGD 0.
	if got := IGD(refU, refP, refU, refP); got != 0 {
		t.Errorf("IGD(identical) = %g, want 0", got)
	}
	// A displaced front has positive IGD.
	if got := IGD(refU, refP, []float64{5}, []float64{5}); got <= 0 {
		t.Errorf("IGD(displaced) = %g, want > 0", got)
	}
	if got := IGD(nil, nil, refU, refP); !math.IsNaN(got) {
		t.Errorf("IGD(empty ref) = %g, want NaN", got)
	}
}

func TestCommonRatio(t *testing.T) {
	tests := []struct {
		name      string
		ref, pred []int
		want      float64
	}{
		{name: "full overlap", ref: []int{1, 2}, pred: []int{2, 1}, want: 1},
		{name: "half", ref: []int{1, 2}, pred: []int{2, 9}, want: 0.5},
		{name: "none", ref: []int{1}, pred: []int{2}, want: 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := CommonRatio(tt.ref, tt.pred); got != tt.want {
				t.Errorf("CommonRatio = %g, want %g", got, tt.want)
			}
		})
	}
	if got := CommonRatio(nil, []int{1}); !math.IsNaN(got) {
		t.Errorf("CommonRatio(empty ref) = %g, want NaN", got)
	}
}
