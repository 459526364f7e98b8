package mathx

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

func TestSolveLinearKnownSystem(t *testing.T) {
	a := [][]float64{
		{2, 1, -1},
		{-3, -1, 2},
		{-2, 1, 2},
	}
	b := []float64{8, -11, -3}
	x, err := SolveLinear(a, b)
	if err != nil {
		t.Fatalf("SolveLinear: %v", err)
	}
	want := []float64{2, 3, -1}
	for i := range want {
		if !almostEqual(x[i], want[i], 1e-9) {
			t.Errorf("x[%d] = %g, want %g", i, x[i], want[i])
		}
	}
}

func TestSolveLinearSingular(t *testing.T) {
	a := [][]float64{
		{1, 2},
		{2, 4},
	}
	if _, err := SolveLinear(a, []float64{1, 2}); !errors.Is(err, ErrSingular) {
		t.Fatalf("err = %v, want ErrSingular", err)
	}
}

func TestSolveLinearBadShapes(t *testing.T) {
	tests := []struct {
		name string
		a    [][]float64
		b    []float64
	}{
		{name: "empty", a: nil, b: nil},
		{name: "rhs mismatch", a: [][]float64{{1}}, b: []float64{1, 2}},
		{name: "non-square", a: [][]float64{{1, 2}}, b: []float64{1}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := SolveLinear(tt.a, tt.b); err == nil {
				t.Fatal("expected error, got nil")
			}
		})
	}
}

func TestSolveLinearNeedsPivoting(t *testing.T) {
	// Zero on the initial diagonal forces a row swap.
	a := [][]float64{
		{0, 1},
		{1, 0},
	}
	b := []float64{3, 7}
	x, err := SolveLinear(a, b)
	if err != nil {
		t.Fatalf("SolveLinear: %v", err)
	}
	if !almostEqual(x[0], 7, 1e-12) || !almostEqual(x[1], 3, 1e-12) {
		t.Fatalf("x = %v, want [7 3]", x)
	}
}

func TestLeastSquaresRecoversLine(t *testing.T) {
	// y = 3 + 2·x fitted from exact samples.
	var xs [][]float64
	var ys []float64
	for i := 0; i < 10; i++ {
		x := float64(i)
		xs = append(xs, []float64{1, x})
		ys = append(ys, 3+2*x)
	}
	w, err := LeastSquares(xs, ys, 0)
	if err != nil {
		t.Fatalf("LeastSquares: %v", err)
	}
	if !almostEqual(w[0], 3, 1e-8) || !almostEqual(w[1], 2, 1e-8) {
		t.Fatalf("w = %v, want [3 2]", w)
	}
}

// dot returns the inner product of two equally sized vectors.
func dot(a, b []float64) float64 {
	var sum float64
	for i := range a {
		sum += a[i] * b[i]
	}
	return sum
}

func TestLeastSquaresRidgeHandlesCollinear(t *testing.T) {
	// Duplicate feature columns are singular without ridge.
	xs := [][]float64{{1, 1}, {2, 2}, {3, 3}}
	ys := []float64{2, 4, 6}
	if _, err := LeastSquares(xs, ys, 0); !errors.Is(err, ErrSingular) {
		t.Fatalf("want ErrSingular without ridge, got %v", err)
	}
	w, err := LeastSquares(xs, ys, 1e-6)
	if err != nil {
		t.Fatalf("LeastSquares with ridge: %v", err)
	}
	// Prediction quality matters, not the individual weights.
	for i, row := range xs {
		if got := dot(w, row); !almostEqual(got, ys[i], 1e-3) {
			t.Errorf("pred(%v) = %g, want %g", row, got, ys[i])
		}
	}
}

func TestLeastSquaresErrors(t *testing.T) {
	tests := []struct {
		name  string
		x     [][]float64
		y     []float64
		ridge float64
	}{
		{name: "no samples", x: nil, y: nil},
		{name: "mismatched", x: [][]float64{{1}}, y: []float64{1, 2}},
		{name: "no features", x: [][]float64{{}}, y: []float64{1}},
		{name: "ragged", x: [][]float64{{1, 2}, {1}}, y: []float64{1, 2}},
		{name: "negative ridge", x: [][]float64{{1}}, y: []float64{1}, ridge: -1},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := LeastSquares(tt.x, tt.y, tt.ridge); err == nil {
				t.Fatal("expected error, got nil")
			}
		})
	}
}

// Property: SolveLinear applied to a well-conditioned random system returns x
// with a·x ≈ b.
func TestSolveLinearProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(6)
		a := make([][]float64, n)
		orig := make([][]float64, n)
		b := make([]float64, n)
		origB := make([]float64, n)
		for i := range a {
			a[i] = make([]float64, n)
			orig[i] = make([]float64, n)
			for j := range a[i] {
				a[i][j] = r.NormFloat64()
			}
			a[i][i] += float64(n) + 1 // diagonal dominance keeps it well-conditioned
			copy(orig[i], a[i])
			b[i] = r.NormFloat64()
			origB[i] = b[i]
		}
		x, err := SolveLinear(a, b)
		if err != nil {
			return false
		}
		for i := 0; i < n; i++ {
			if !almostEqual(dot(orig[i], x), origB[i], 1e-6) {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 60, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestMeanStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(xs); !almostEqual(got, 5, 1e-12) {
		t.Errorf("Mean = %g, want 5", got)
	}
	if got := StdDev(xs); !almostEqual(got, 2, 1e-12) {
		t.Errorf("StdDev = %g, want 2", got)
	}
	if got := Mean(nil); got != 0 {
		t.Errorf("Mean(nil) = %g, want 0", got)
	}
	if got := StdDev([]float64{1}); got != 0 {
		t.Errorf("StdDev(single) = %g, want 0", got)
	}
}

func TestGeoMean(t *testing.T) {
	tests := []struct {
		name string
		give []float64
		want float64
	}{
		{name: "pair", give: []float64{2, 8}, want: 4},
		{name: "identity", give: []float64{5}, want: 5},
		{name: "empty", give: nil, want: 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := GeoMean(tt.give); !almostEqual(got, tt.want, 1e-9) {
				t.Errorf("GeoMean(%v) = %g, want %g", tt.give, got, tt.want)
			}
		})
	}
}

func TestGeoMeanClampsNonPositive(t *testing.T) {
	got := GeoMean([]float64{1, 0})
	if math.IsNaN(got) || math.IsInf(got, 0) {
		t.Fatalf("GeoMean with zero produced %g", got)
	}
	if got <= 0 {
		t.Fatalf("GeoMean with zero = %g, want > 0", got)
	}
}

func TestMAPE(t *testing.T) {
	truth := []float64{100, 200}
	pred := []float64{110, 180}
	// |10/100| = 10%, |20/200| = 10% → 10%.
	if got := MAPE(truth, pred); !almostEqual(got, 10, 1e-9) {
		t.Errorf("MAPE = %g, want 10", got)
	}
	if got := MAPE([]float64{0}, []float64{1}); !math.IsNaN(got) {
		t.Errorf("MAPE over all-zero truth = %g, want NaN", got)
	}
	if got := MAPE([]float64{1}, []float64{1, 2}); !math.IsNaN(got) {
		t.Errorf("MAPE with length mismatch = %g, want NaN", got)
	}
}

func TestClamp(t *testing.T) {
	tests := []struct {
		v, lo, hi, want float64
	}{
		{5, 0, 10, 5},
		{-1, 0, 10, 0},
		{11, 0, 10, 10},
	}
	for _, tt := range tests {
		if got := Clamp(tt.v, tt.lo, tt.hi); got != tt.want {
			t.Errorf("Clamp(%g, %g, %g) = %g, want %g", tt.v, tt.lo, tt.hi, got, tt.want)
		}
	}
}

func TestEMAPrimingAndSmoothing(t *testing.T) {
	e := NewEMA(0.5)
	if e.primed {
		t.Fatal("new EMA should not be primed")
	}
	if got := e.Add(10); got != 10 {
		t.Fatalf("first Add = %g, want 10", got)
	}
	if got := e.Add(20); !almostEqual(got, 15, 1e-12) {
		t.Fatalf("second Add = %g, want 15", got)
	}
	if !e.primed || e.Value() != 15 {
		t.Fatalf("state = (%v, %g), want (true, 15)", e.primed, e.Value())
	}
	e.Reset()
	if e.primed || e.Value() != 0 {
		t.Fatal("Reset did not clear state")
	}
}

func TestEMAInvalidAlphaFallsBack(t *testing.T) {
	for _, alpha := range []float64{0, -1, 1.5} {
		e := NewEMA(alpha)
		e.Add(100)
		got := e.Add(0)
		// Default alpha 0.1: 0.1·0 + 0.9·100 = 90.
		if !almostEqual(got, 90, 1e-12) {
			t.Errorf("alpha=%g: second Add = %g, want 90", alpha, got)
		}
	}
}

// Property: EMA stays within [min, max] of the samples seen so far.
func TestEMABoundedProperty(t *testing.T) {
	f := func(samples []float64) bool {
		if len(samples) == 0 {
			return true
		}
		e := NewEMA(0.1)
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, s := range samples {
			if math.IsNaN(s) || math.IsInf(s, 0) {
				return true // skip degenerate float inputs
			}
			lo = math.Min(lo, s)
			hi = math.Max(hi, s)
			v := e.Add(s)
			if v < lo-1e-9 || v > hi+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
