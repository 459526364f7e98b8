package regress

import (
	"fmt"
	"math"
	"sort"

	"github.com/harp-rm/harp/internal/mathx"
)

// SVM is a least-squares support-vector regression with an RBF kernel
// (LS-SVM): it solves (K + I/C)·α = y − b and predicts Σ αᵢ·k(x, xᵢ) + b.
// The kernel width follows the median-distance heuristic. This stands in for
// the SVR baseline of Fig. 5 (the exact SMO solver is an implementation
// detail; the bias/variance behaviour is what the comparison exercises).
type SVM struct {
	c     float64
	gamma float64

	support [][]float64
	alpha   []float64
	bias    float64
	scale   []float64
}

var _ Model = (*SVM)(nil)

// NewSVM returns an LS-SVM with default regularisation C = 10.
func NewSVM() *SVM { return &SVM{c: 10} }

// Fit implements Model.
func (s *SVM) Fit(x [][]float64, y []float64) error {
	nf, err := checkDesign(x, y)
	if err != nil {
		return err
	}
	if len(x) < 2 {
		return ErrTooFewSamples
	}

	// Feature scaling.
	s.scale = make([]float64, nf)
	for _, row := range x {
		for j, v := range row {
			if a := math.Abs(v); a > s.scale[j] {
				s.scale[j] = a
			}
		}
	}
	for j := range s.scale {
		if s.scale[j] == 0 {
			s.scale[j] = 1
		}
	}
	scaled := make([][]float64, len(x))
	for i, row := range x {
		scaled[i] = make([]float64, nf)
		for j, v := range row {
			scaled[i][j] = v / s.scale[j]
		}
	}

	// Median pairwise distance heuristic for the RBF width.
	var dists []float64
	for i := 0; i < len(scaled); i++ {
		for j := i + 1; j < len(scaled); j++ {
			dists = append(dists, sqDist(scaled[i], scaled[j]))
		}
	}
	sort.Float64s(dists)
	med := 1.0
	if len(dists) > 0 {
		med = dists[len(dists)/2]
		if med == 0 {
			med = 1
		}
	}
	s.gamma = 1 / med

	// Centre targets for the bias term.
	s.bias = mathx.Mean(y)
	rhs := make([]float64, len(y))
	for i, v := range y {
		rhs[i] = v - s.bias
	}

	// (K + I/C) α = y − b.
	n := len(scaled)
	k := make([][]float64, n)
	for i := range k {
		k[i] = make([]float64, n)
		for j := range k[i] {
			k[i][j] = math.Exp(-s.gamma * sqDist(scaled[i], scaled[j]))
		}
		k[i][i] += 1 / s.c
	}
	alpha, err := mathx.SolveLinear(k, rhs)
	if err != nil {
		return fmt.Errorf("svm fit: %w", err)
	}
	s.support = scaled
	s.alpha = alpha
	return nil
}

// Predict implements Model.
func (s *SVM) Predict(x []float64) (float64, error) {
	if s.alpha == nil {
		return 0, ErrNotFitted
	}
	if len(x) != len(s.scale) {
		return 0, fmt.Errorf("regress: %d features, model has %d", len(x), len(s.scale))
	}
	xi := make([]float64, len(x))
	for j, v := range x {
		xi[j] = v / s.scale[j]
	}
	out := s.bias
	for i, sv := range s.support {
		out += s.alpha[i] * math.Exp(-s.gamma*sqDist(xi, sv))
	}
	return out, nil
}

func sqDist(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}
