package regress

import (
	"fmt"

	"github.com/harp-rm/harp/internal/mathx"
)

// Polynomial is ridge-stabilised polynomial regression with full cross
// terms up to the configured degree. HARP uses degree 2 in production: it
// matches degree 3's Pareto-front quality while converging from ~20 training
// points (§5.2).
type Polynomial struct {
	degree    int
	nFeatures int
	weights   []float64
	scale     []float64
	// factors and ends store the monomials in the order of weights, each as
	// its list of features: term t is the product of the scaled features
	// factors[ends[t-1]:ends[t]], one entry per unit of exponent in
	// ascending feature order (x0·x2 is [0 2], x1² is [1 1]). Fit stores
	// them so Predict enumerates nothing and walks no zero exponent.
	factors, ends []int
}

var _ Model = (*Polynomial)(nil)

// NewPolynomial returns a polynomial model of the given degree (≥ 1).
func NewPolynomial(degree int) *Polynomial {
	if degree < 1 {
		degree = 1
	}
	return &Polynomial{degree: degree}
}

// MinSamples returns the number of samples needed to determine the model.
func (p *Polynomial) MinSamples(nFeatures int) int {
	_, ends := terms(nFeatures, p.degree)
	return len(ends)
}

// Fit implements Model.
func (p *Polynomial) Fit(x [][]float64, y []float64) error {
	nf, err := checkDesign(x, y)
	if err != nil {
		return err
	}
	// Scale each feature to ≈[0,1] for conditioning.
	scale := make([]float64, nf)
	for _, row := range x {
		for j, v := range row {
			if v > scale[j] {
				scale[j] = v
			}
		}
	}
	for j := range scale {
		if scale[j] == 0 {
			scale[j] = 1
		}
	}

	factors, ends := terms(nf, p.degree)
	design := make([][]float64, len(x))
	z := make([]float64, nf)
	for i, row := range x {
		design[i] = make([]float64, len(ends))
		scaled(z, row, scale)
		start := 0
		for t, end := range ends {
			design[i][t] = product(z, factors[start:end])
			start = end
		}
	}
	w, err := mathx.LeastSquares(design, y, 1e-6)
	if err != nil {
		return fmt.Errorf("poly%d fit: %w", p.degree, err)
	}
	p.nFeatures = nf
	p.weights = w
	p.scale = scale
	p.factors, p.ends = factors, ends
	return nil
}

// Predict implements Model.
func (p *Polynomial) Predict(x []float64) (float64, error) {
	if p.weights == nil {
		return 0, ErrNotFitted
	}
	if len(x) != p.nFeatures {
		return 0, fmt.Errorf("regress: %d features, model has %d", len(x), p.nFeatures)
	}
	var buf [8]float64
	z := buf[:]
	if len(x) > len(buf) {
		z = make([]float64, len(x))
	}
	scaled(z, x, p.scale)
	var sum float64
	start := 0
	for t, end := range p.ends {
		sum += p.weights[t] * product(z, p.factors[start:end])
		start = end
	}
	return sum, nil
}

// scaled writes each feature divided by its scale into z.
func scaled(z, x, scale []float64) {
	for j := range x {
		z[j] = x[j] / scale[j]
	}
}

// product multiplies the listed scaled features, one factor at a time in
// the stored order, starting from 1.
func product(z []float64, factors []int) float64 {
	v := 1.0
	for _, j := range factors {
		v *= z[j]
	}
	return v
}

// terms lists the monomials of total degree ≤ degree over nf features as
// factor lists (Polynomial.factors, .ends), their exponent vectors in
// lexicographic order, the constant term first. It counts them first, so
// the two lists are allocated once at their size.
func terms(nf, degree int) (factors, ends []int) {
	exp := make([]int, nf)
	n, m := 0, 0
	for sum, ok := 0, true; ok; sum, ok = nextMonomial(exp, sum, degree) {
		n, m = n+1, m+sum
	}
	clear(exp)
	factors, ends = make([]int, 0, m), make([]int, 0, n)
	for sum, ok := 0, true; ok; sum, ok = nextMonomial(exp, sum, degree) {
		for j, e := range exp {
			for ; e > 0; e-- {
				factors = append(factors, j)
			}
		}
		ends = append(ends, len(factors))
	}
	return factors, ends
}

// nextMonomial advances exp, an exponent vector of total degree sum, to the
// next one of total degree ≤ degree in lexicographic order and returns its
// total degree; ok is false after the last, (degree, 0, …, 0).
func nextMonomial(exp []int, sum, degree int) (next int, ok bool) {
	last := len(exp) - 1
	if last < 0 {
		return 0, false
	}
	if sum < degree {
		exp[last]++
		return sum + 1, true
	}
	k := last
	for k >= 0 && exp[k] == 0 {
		k--
	}
	if k <= 0 {
		return 0, false
	}
	sum -= exp[k] - 1
	exp[k] = 0
	exp[k-1]++
	return sum, true
}
