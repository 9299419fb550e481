package darknet

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// Property: any randomly shaped network's weights survive a
// save/load round trip bit-exactly, including the iteration counter.
func TestPropertyWeightsRoundTripAnyArchitecture(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		layers := 1 + rng.Intn(3)
		filters := 2 + rng.Intn(6)
		batch := 1 + rng.Intn(8)
		cfg := MNISTConfig(layers, filters, batch)
		n, err := ParseConfig(strings.NewReader(cfg), rng)
		if err != nil {
			return false
		}
		// Randomise every parameter so defaults don't mask bugs.
		for _, l := range n.Layers {
			for _, p := range l.Params() {
				for i := range p {
					p[i] = float32(rng.NormFloat64())
				}
			}
		}
		n.Iteration = rng.Intn(10000)

		var buf bytes.Buffer
		if err := n.SaveWeights(&buf); err != nil {
			return false
		}
		m, err := ParseConfig(strings.NewReader(cfg), rand.New(rand.NewSource(seed+1)))
		if err != nil {
			return false
		}
		if err := m.LoadWeights(bytes.NewReader(buf.Bytes())); err != nil {
			return false
		}
		if m.Iteration != n.Iteration {
			return false
		}
		for li := range n.Layers {
			pn := n.Layers[li].Params()
			pm := m.Layers[li].Params()
			for pi := range pn {
				for i := range pn[pi] {
					if pn[pi][i] != pm[pi][i] {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: softmax output is always a probability distribution for
// any finite logits.
func TestPropertySoftmaxDistribution(t *testing.T) {
	sm, err := NewSoftmax(Shape{C: 10, H: 1, W: 1})
	if err != nil {
		t.Fatalf("NewSoftmax: %v", err)
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		x := make([]float32, 10)
		for i := range x {
			x[i] = float32(rng.NormFloat64() * 20)
		}
		out, err := sm.Forward(x, 1, false)
		if err != nil {
			return false
		}
		var sum float64
		for _, p := range out {
			if p < 0 || p > 1 {
				return false
			}
			sum += float64(p)
		}
		return sum > 0.9999 && sum < 1.0001
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: one SGD step with zero learning rate never changes
// parameters; a nonzero step on nonzero gradients changes them.
func TestPropertySGDStepBehaviour(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(32)
		w := make([]float32, n)
		g := make([]float32, n)
		v := make([]float32, n)
		for i := range w {
			w[i] = float32(rng.NormFloat64())
			g[i] = float32(rng.NormFloat64()) + 0.1 // nonzero
		}
		orig := append([]float32(nil), w...)

		// Zero LR: no movement, gradients cleared.
		sgdStep(w, g, &v, 0, 0, 0)
		for i := range w {
			if w[i] != orig[i] || g[i] != 0 {
				return false
			}
		}
		// Nonzero LR on fresh gradients: movement.
		for i := range g {
			g[i] = 1
		}
		sgdStep(w, g, &v, 0.1, 0, 0)
		moved := false
		for i := range w {
			if w[i] != orig[i] {
				moved = true
			}
		}
		return moved
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
