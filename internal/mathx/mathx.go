// Package mathx provides the small numeric kernel used across HARP:
// dense linear least squares, exponential moving averages, and a few
// descriptive statistics. Everything is stdlib-only and allocation-conscious
// because the resource manager evaluates regression models on its hot path.
package mathx

import (
	"errors"
	"fmt"
	"math"
)

// ErrSingular is returned when a linear system has no unique solution.
var ErrSingular = errors.New("mathx: singular system")

// SolveLinear solves the square system a·x = b in place using Gaussian
// elimination with partial pivoting. a is row-major with n rows of n columns.
// a and b are clobbered; the solution is returned in a fresh slice.
func SolveLinear(a [][]float64, b []float64) ([]float64, error) {
	n := len(a)
	if n == 0 || len(b) != n {
		return nil, fmt.Errorf("mathx: bad system shape: %d rows, %d rhs", n, len(b))
	}
	for _, row := range a {
		if len(row) != n {
			return nil, fmt.Errorf("mathx: non-square system: row of width %d in %d-system", len(row), n)
		}
	}

	for col := 0; col < n; col++ {
		// Partial pivot: find the row with the largest magnitude in this column.
		pivot := col
		maxAbs := math.Abs(a[col][col])
		for r := col + 1; r < n; r++ {
			if abs := math.Abs(a[r][col]); abs > maxAbs {
				maxAbs = abs
				pivot = r
			}
		}
		if maxAbs < 1e-12 {
			return nil, ErrSingular
		}
		if pivot != col {
			a[col], a[pivot] = a[pivot], a[col]
			b[col], b[pivot] = b[pivot], b[col]
		}
		inv := 1.0 / a[col][col]
		for r := col + 1; r < n; r++ {
			factor := a[r][col] * inv
			if factor == 0 {
				continue
			}
			for c := col; c < n; c++ {
				a[r][c] -= factor * a[col][c]
			}
			b[r] -= factor * b[col]
		}
	}

	x := make([]float64, n)
	for row := n - 1; row >= 0; row-- {
		sum := b[row]
		for c := row + 1; c < n; c++ {
			sum -= a[row][c] * x[c]
		}
		x[row] = sum / a[row][row]
	}
	return x, nil
}

// LeastSquares solves min ‖X·w − y‖² via the ridge-stabilised normal
// equations (XᵀX + λI)·w = Xᵀy. X is row-major: one row per sample, one
// column per feature. A small ridge keeps near-collinear designs solvable,
// which matters when the exploration engine fits on very few points.
func LeastSquares(x [][]float64, y []float64, ridge float64) ([]float64, error) {
	if len(x) == 0 {
		return nil, errors.New("mathx: least squares with no samples")
	}
	if len(x) != len(y) {
		return nil, fmt.Errorf("mathx: %d samples but %d targets", len(x), len(y))
	}
	nf := len(x[0])
	if nf == 0 {
		return nil, errors.New("mathx: least squares with no features")
	}
	if ridge < 0 {
		return nil, fmt.Errorf("mathx: negative ridge %g", ridge)
	}

	xtx := make([][]float64, nf)
	for i := range xtx {
		xtx[i] = make([]float64, nf)
	}
	xty := make([]float64, nf)
	for s, row := range x {
		if len(row) != nf {
			return nil, fmt.Errorf("mathx: ragged design matrix at row %d", s)
		}
		for i := 0; i < nf; i++ {
			if row[i] == 0 {
				continue
			}
			for j := i; j < nf; j++ {
				xtx[i][j] += row[i] * row[j]
			}
			xty[i] += row[i] * y[s]
		}
	}
	for i := 0; i < nf; i++ {
		for j := 0; j < i; j++ {
			xtx[i][j] = xtx[j][i]
		}
		xtx[i][i] += ridge
	}
	return SolveLinear(xtx, xty)
}

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, v := range xs {
		sum += v
	}
	return sum / float64(len(xs))
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var sq float64
	for _, v := range xs {
		d := v - m
		sq += d * d
	}
	return math.Sqrt(sq / float64(len(xs)))
}

// GeoMean returns the geometric mean of xs. Non-positive entries make a
// geometric mean undefined; they are clamped to a tiny positive value so a
// single bad measurement cannot poison a whole summary row.
func GeoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var logSum float64
	for _, v := range xs {
		if v < 1e-12 {
			v = 1e-12
		}
		logSum += math.Log(v)
	}
	return math.Exp(logSum / float64(len(xs)))
}

// MAPE returns the mean absolute percentage error of pred against truth,
// expressed as a percentage. Truth values with magnitude below eps are
// skipped to avoid division blow-ups.
func MAPE(truth, pred []float64) float64 {
	const eps = 1e-9
	if len(truth) != len(pred) {
		return math.NaN()
	}
	var sum float64
	var n int
	for i := range truth {
		if math.Abs(truth[i]) < eps {
			continue
		}
		sum += math.Abs((pred[i] - truth[i]) / truth[i])
		n++
	}
	if n == 0 {
		return math.NaN()
	}
	return 100 * sum / float64(n)
}

// Clamp limits v to the closed interval [lo, hi].
func Clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// EMA is an exponential moving average with smoothing factor alpha
// (new = alpha·sample + (1−alpha)·old). The zero value is not usable;
// construct with NewEMA. HARP uses alpha = 0.1 to smooth utility and power
// measurements (§5.1 of the paper).
type EMA struct {
	alpha  float64
	value  float64
	primed bool
}

// NewEMA returns an EMA with the given smoothing factor in (0, 1].
func NewEMA(alpha float64) *EMA {
	if alpha <= 0 || alpha > 1 {
		alpha = 0.1
	}
	return &EMA{alpha: alpha}
}

// Add feeds one sample and returns the updated average. The first sample
// primes the average directly.
func (e *EMA) Add(sample float64) float64 {
	if !e.primed {
		e.value = sample
		e.primed = true
		return e.value
	}
	e.value = e.alpha*sample + (1-e.alpha)*e.value
	return e.value
}

// Value returns the current average (0 before any sample).
func (e *EMA) Value() float64 { return e.value }

// Reset clears the average back to the unprimed state.
func (e *EMA) Reset() { e.value, e.primed = 0, false }
