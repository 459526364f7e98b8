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
	// terms are the exponent vectors of the monomials, in the order of
	// weights; Fit stores them so Predict enumerates nothing.
	terms [][]int
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
	return len(monomials(nFeatures, p.degree))
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

	terms := monomials(nf, p.degree)
	design := make([][]float64, len(x))
	for i, row := range x {
		design[i] = make([]float64, len(terms))
		for t, exps := range terms {
			design[i][t] = monomial(row, scale, exps)
		}
	}
	w, err := mathx.LeastSquares(design, y, 1e-6)
	if err != nil {
		return fmt.Errorf("poly%d fit: %w", p.degree, err)
	}
	p.nFeatures = nf
	p.weights = w
	p.scale = scale
	p.terms = terms
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
	var sum float64
	for t, exps := range p.terms {
		sum += p.weights[t] * monomial(x, p.scale, exps)
	}
	return sum, nil
}

// monomials enumerates the exponent vectors of all monomials of total degree
// ≤ degree over nf variables, including the constant term.
func monomials(nf, degree int) [][]int {
	var out [][]int
	exp := make([]int, nf)
	var rec func(pos, remaining int)
	rec = func(pos, remaining int) {
		if pos == nf {
			cp := make([]int, nf)
			copy(cp, exp)
			out = append(out, cp)
			return
		}
		for d := 0; d <= remaining; d++ {
			exp[pos] = d
			rec(pos+1, remaining-d)
		}
		exp[pos] = 0
	}
	rec(0, degree)
	return out
}

// monomial evaluates the term with the given exponents on the scaled input,
// one factor x[j]/scale[j] at a time.
func monomial(x, scale []float64, exps []int) float64 {
	v := 1.0
	for j, e := range exps {
		for k := 0; k < e; k++ {
			v *= x[j] / scale[j]
		}
	}
	return v
}
