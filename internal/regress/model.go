// Package regress implements the regression models HARP evaluates for
// approximating utility and power of unmeasured operating points (§5.2):
// polynomial regression of degrees 1–3, a small neural network, and a
// least-squares support-vector machine, together with the comparison
// metrics from Fig. 5 (MAPE, inverted generational distance, and the ratio
// of common Pareto points).
package regress

import (
	"errors"
	"fmt"
)

// Common errors.
var (
	// ErrNotFitted is returned by Predict before a successful Fit.
	ErrNotFitted = errors.New("regress: model not fitted")
	// ErrTooFewSamples is returned when Fit receives fewer samples than the
	// model can be estimated from.
	ErrTooFewSamples = errors.New("regress: too few samples")
)

// Model approximates a scalar response (utility or power) from an extended
// resource vector's feature form.
type Model interface {
	// Fit trains on the design matrix x (one row per sample) and targets y.
	Fit(x [][]float64, y []float64) error
	// Predict evaluates the fitted model; it returns an error if called
	// before Fit succeeded or with the wrong feature width.
	Predict(x []float64) (float64, error)
}

// Factory constructs a fresh model; the exploration engine owns one factory
// and instantiates per-application, per-metric models from it.
type Factory func() Model

// Registry returns the model factories evaluated in Fig. 5, keyed by name.
func Registry(seed int64) map[string]Factory {
	return map[string]Factory{
		"poly1": func() Model { return NewPolynomial(1) },
		"poly2": func() Model { return NewPolynomial(2) },
		"poly3": func() Model { return NewPolynomial(3) },
		"nn":    func() Model { return NewNeuralNet(seed) },
		"svm":   func() Model { return NewSVM() },
	}
}

// checkDesign validates a design matrix and target vector.
func checkDesign(x [][]float64, y []float64) (nFeatures int, err error) {
	if len(x) == 0 {
		return 0, ErrTooFewSamples
	}
	if len(x) != len(y) {
		return 0, fmt.Errorf("regress: %d samples, %d targets", len(x), len(y))
	}
	nFeatures = len(x[0])
	if nFeatures == 0 {
		return 0, errors.New("regress: no features")
	}
	for i, row := range x {
		if len(row) != nFeatures {
			return 0, fmt.Errorf("regress: ragged design at row %d", i)
		}
	}
	return nFeatures, nil
}
