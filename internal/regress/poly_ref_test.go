package regress

import (
	"math"
	"math/rand"
	"testing"
)

// refPredict is the plain form Predict replaced: re-enumerate the monomials,
// expand the scaled input into a fresh slice and take its inner product with
// the weights, summing in term order.
func refPredict(p *Polynomial, x []float64) float64 {
	terms := monomials(p.nFeatures, p.degree)
	expanded := make([]float64, len(terms))
	for t, exps := range terms {
		v := 1.0
		for j, e := range exps {
			for k := 0; k < e; k++ {
				v *= x[j] / p.scale[j]
			}
		}
		expanded[t] = v
	}
	var sum float64
	for i := range p.weights {
		sum += p.weights[i] * expanded[i]
	}
	return sum
}

// TestPolynomialPredictMatchesReference fits random data at degrees 1–3 on
// 1–4 features and requires Predict to equal the reference bit for bit on
// the training points and on fresh probes.
func TestPolynomialPredictMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for degree := 1; degree <= 3; degree++ {
		for nf := 1; nf <= 4; nf++ {
			for trial := 0; trial < 5; trial++ {
				m := NewPolynomial(degree)
				n := m.MinSamples(nf) + 1 + rng.Intn(10)
				xs := make([][]float64, n)
				ys := make([]float64, n)
				for i := range xs {
					xs[i] = make([]float64, nf)
					for j := range xs[i] {
						xs[i][j] = float64(rng.Intn(9)) + rng.Float64()
					}
					ys[i] = 100*rng.Float64() - 20
				}
				if err := m.Fit(xs, ys); err != nil {
					t.Fatalf("poly%d on %d features: %v", degree, nf, err)
				}
				probes := append([][]float64{}, xs...)
				for i := 0; i < 10; i++ {
					x := make([]float64, nf)
					for j := range x {
						x[j] = 12 * rng.Float64()
					}
					probes = append(probes, x)
				}
				for _, x := range probes {
					got, err := m.Predict(x)
					if err != nil {
						t.Fatal(err)
					}
					if want := refPredict(m, x); math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("poly%d on %d features: Predict(%v) = %v, reference %v", degree, nf, x, got, want)
					}
				}
			}
		}
	}
}

// TestPolynomialPredictAllocatesNothing pins the exploration inner loop:
// a fitted model predicts without allocating.
func TestPolynomialPredictAllocatesNothing(t *testing.T) {
	xs, ys := sampleGrid()
	m := NewPolynomial(2)
	if err := m.Fit(xs, ys); err != nil {
		t.Fatal(err)
	}
	probe := []float64{2, 3, 5}
	if allocs := testing.AllocsPerRun(100, func() {
		if _, err := m.Predict(probe); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("Predict allocates %v times per call, want 0", allocs)
	}
}

// monomials is the reference enumeration: the exponent vectors of all
// monomials of total degree ≤ degree over nf variables, including the
// constant term, in the order terms lists them.
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
