package darknet

import (
	"math/rand"
	"testing"
	"testing/quick"
)

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
