package regress

import (
	"fmt"
	"math"
	"math/rand"
)

// NeuralNet is a small fully connected network (two hidden layers of 16 tanh
// units) trained with Adam, matching the NN baseline of Fig. 5. With the
// handful of samples available during runtime exploration it tends to
// underfit utility while doing acceptably on power — exactly the behaviour
// the paper reports.
type NeuralNet struct {
	seed      int64
	hidden    int
	epochs    int
	lr        float64
	nFeatures int

	// parameters: w1[h][f], b1[h], w2[h2][h], b2[h2], w3[h2], b3
	w1, w2   [][]float64
	b1, b2   []float64
	w3       []float64
	b3       float64
	inScale  []float64
	outMean  float64
	outScale float64
	fitted   bool
}

var _ Model = (*NeuralNet)(nil)

// NewNeuralNet returns an MLP with deterministic initialisation.
func NewNeuralNet(seed int64) *NeuralNet {
	return &NeuralNet{seed: seed, hidden: 16, epochs: 300, lr: 0.01}
}

// Fit implements Model.
func (n *NeuralNet) Fit(x [][]float64, y []float64) error {
	nf, err := checkDesign(x, y)
	if err != nil {
		return err
	}
	if len(x) < 3 {
		return ErrTooFewSamples
	}
	rng := rand.New(rand.NewSource(n.seed))
	h := n.hidden

	// Normalise inputs and outputs.
	n.inScale = make([]float64, nf)
	for _, row := range x {
		for j, v := range row {
			if a := math.Abs(v); a > n.inScale[j] {
				n.inScale[j] = a
			}
		}
	}
	for j := range n.inScale {
		if n.inScale[j] == 0 {
			n.inScale[j] = 1
		}
	}
	var mean float64
	for _, v := range y {
		mean += v
	}
	mean /= float64(len(y))
	var spread float64
	for _, v := range y {
		spread += (v - mean) * (v - mean)
	}
	spread = math.Sqrt(spread / float64(len(y)))
	if spread == 0 {
		spread = 1
	}
	n.outMean, n.outScale = mean, spread

	initMat := func(rows, cols int) [][]float64 {
		m := make([][]float64, rows)
		s := math.Sqrt(2 / float64(cols))
		for i := range m {
			m[i] = make([]float64, cols)
			for j := range m[i] {
				m[i][j] = rng.NormFloat64() * s
			}
		}
		return m
	}
	n.nFeatures = nf
	n.w1 = initMat(h, nf)
	n.b1 = make([]float64, h)
	n.w2 = initMat(h, h)
	n.b2 = make([]float64, h)
	n.w3 = make([]float64, h)
	for i := range n.w3 {
		n.w3[i] = rng.NormFloat64() * math.Sqrt(2/float64(h))
	}
	n.b3 = 0

	// Adam state, flattened parameter views.
	params, grads := n.paramRefs()
	mAdam := make([]float64, len(params))
	vAdam := make([]float64, len(params))
	const beta1, beta2, eps = 0.9, 0.999, 1e-8

	order := rng.Perm(len(x))
	step := 0
	for epoch := 0; epoch < n.epochs; epoch++ {
		for _, idx := range order {
			step++
			xi := n.scaleIn(x[idx])
			target := (y[idx] - n.outMean) / n.outScale

			// Forward.
			a1 := make([]float64, h)
			for i := 0; i < h; i++ {
				s := n.b1[i]
				for j := 0; j < nf; j++ {
					s += n.w1[i][j] * xi[j]
				}
				a1[i] = math.Tanh(s)
			}
			a2 := make([]float64, h)
			for i := 0; i < h; i++ {
				s := n.b2[i]
				for j := 0; j < h; j++ {
					s += n.w2[i][j] * a1[j]
				}
				a2[i] = math.Tanh(s)
			}
			out := n.b3
			for i := 0; i < h; i++ {
				out += n.w3[i] * a2[i]
			}

			// Backward (squared error).
			dOut := out - target
			for i := range grads {
				*grads[i] = 0
			}
			gw3 := make([]float64, h)
			d2 := make([]float64, h)
			for i := 0; i < h; i++ {
				gw3[i] = dOut * a2[i]
				d2[i] = dOut * n.w3[i] * (1 - a2[i]*a2[i])
			}
			d1 := make([]float64, h)
			for j := 0; j < h; j++ {
				var s float64
				for i := 0; i < h; i++ {
					s += d2[i] * n.w2[i][j]
				}
				d1[j] = s * (1 - a1[j]*a1[j])
			}
			// Accumulate into the flattened gradient view.
			g := 0
			for i := 0; i < h; i++ {
				for j := 0; j < nf; j++ {
					*grads[g] = d1[i] * xi[j]
					g++
				}
			}
			for i := 0; i < h; i++ {
				*grads[g] = d1[i]
				g++
			}
			for i := 0; i < h; i++ {
				for j := 0; j < h; j++ {
					*grads[g] = d2[i] * a1[j]
					g++
				}
			}
			for i := 0; i < h; i++ {
				*grads[g] = d2[i]
				g++
			}
			for i := 0; i < h; i++ {
				*grads[g] = gw3[i]
				g++
			}
			*grads[g] = dOut

			// Adam update (bias corrections are per-step constants).
			mCorr := 1 / (1 - math.Pow(beta1, float64(step)))
			vCorr := 1 / (1 - math.Pow(beta2, float64(step)))
			for i := range params {
				gi := *grads[i]
				mAdam[i] = beta1*mAdam[i] + (1-beta1)*gi
				vAdam[i] = beta2*vAdam[i] + (1-beta2)*gi*gi
				mh := mAdam[i] * mCorr
				vh := vAdam[i] * vCorr
				*params[i] -= n.lr * mh / (math.Sqrt(vh) + eps)
			}
		}
	}
	n.fitted = true
	return nil
}

// paramRefs returns pointers to every parameter and matching gradient slots.
func (n *NeuralNet) paramRefs() (params, grads []*float64) {
	add := func(p *float64) {
		params = append(params, p)
		g := new(float64)
		grads = append(grads, g)
	}
	for i := range n.w1 {
		for j := range n.w1[i] {
			add(&n.w1[i][j])
		}
	}
	for i := range n.b1 {
		add(&n.b1[i])
	}
	for i := range n.w2 {
		for j := range n.w2[i] {
			add(&n.w2[i][j])
		}
	}
	for i := range n.b2 {
		add(&n.b2[i])
	}
	for i := range n.w3 {
		add(&n.w3[i])
	}
	add(&n.b3)
	return params, grads
}

func (n *NeuralNet) scaleIn(x []float64) []float64 {
	out := make([]float64, len(x))
	for j, v := range x {
		out[j] = v / n.inScale[j]
	}
	return out
}

// Predict implements Model.
func (n *NeuralNet) Predict(x []float64) (float64, error) {
	if !n.fitted {
		return 0, ErrNotFitted
	}
	if len(x) != n.nFeatures {
		return 0, fmt.Errorf("regress: %d features, model has %d", len(x), n.nFeatures)
	}
	xi := n.scaleIn(x)
	h := n.hidden
	a1 := make([]float64, h)
	for i := 0; i < h; i++ {
		s := n.b1[i]
		for j := range xi {
			s += n.w1[i][j] * xi[j]
		}
		a1[i] = math.Tanh(s)
	}
	a2 := make([]float64, h)
	for i := 0; i < h; i++ {
		s := n.b2[i]
		for j := 0; j < h; j++ {
			s += n.w2[i][j] * a1[j]
		}
		a2[i] = math.Tanh(s)
	}
	out := n.b3
	for i := 0; i < h; i++ {
		out += n.w3[i] * a2[i]
	}
	return out*n.outScale + n.outMean, nil
}
