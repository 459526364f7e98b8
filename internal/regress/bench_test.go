package regress

import "testing"

func benchData() (xs [][]float64, ys []float64) {
	return sampleGrid()
}

// BenchmarkPoly2Fit measures fitting the production model on a 25-point
// exploration table — what every refinement step pays.
func BenchmarkPoly2Fit(b *testing.B) {
	xs, ys := benchData()
	train, trainY := subset(xs, ys, 25, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := NewPolynomial(2)
		if err := m.Fit(train, trainY); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPoly2Predict measures one prediction — done for every candidate
// configuration on every exploration step.
func BenchmarkPoly2Predict(b *testing.B) {
	xs, ys := benchData()
	m := NewPolynomial(2)
	if err := m.Fit(xs, ys); err != nil {
		b.Fatal(err)
	}
	probe := []float64{2, 3, 5}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Predict(probe); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNNFit measures the neural-network baseline's training cost.
func BenchmarkNNFit(b *testing.B) {
	xs, ys := benchData()
	train, trainY := subset(xs, ys, 25, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := NewNeuralNet(int64(i))
		if err := m.Fit(train, trainY); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSVMFit measures the LS-SVM baseline's training cost.
func BenchmarkSVMFit(b *testing.B) {
	xs, ys := benchData()
	train, trainY := subset(xs, ys, 40, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := NewSVM()
		if err := m.Fit(train, trainY); err != nil {
			b.Fatal(err)
		}
	}
}
