// Package darknet implements SGX-Darknet, the Plinius port of the
// Darknet convolutional-neural-network framework: real training and
// inference in Go, structured like the C original (a network is a stack
// of layers; each layer owns its parameter buffers, gradients and
// activation state).
//
// The feature set covers everything the paper's evaluation uses:
// convolutional layers with leaky-ReLU activation (and optional batch
// normalisation, which is why every convolutional layer carries five
// parameter buffers — weights, biases, scales, rolling mean, rolling
// variance — matching the paper's 5-buffers-per-layer encryption
// metadata accounting), max-pooling, fully-connected layers, a softmax
// output with cross-entropy loss, SGD with momentum, a Darknet-style
// .cfg parser, and binary weight (de)serialisation for the SSD
// checkpointing baseline.
package darknet

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
)

// Activation selects a layer's non-linearity.
type Activation int

// Supported activations. The paper's models use leaky ReLU in the
// convolutional layers and linear before the softmax output.
const (
	Linear Activation = iota + 1
	ReLU
	LeakyReLU
)

const leakySlope = 0.1

// leakyScale is the leaky-ReLU factor indexed by "on the negative
// side". Scaling by 1 is exact, so indexing changes no value; it takes
// a coin-flip branch out of the element-wise activation loops.
var leakyScale = [2]float32{1, leakySlope}

// String implements fmt.Stringer.
func (a Activation) String() string {
	switch a {
	case Linear:
		return "linear"
	case ReLU:
		return "relu"
	case LeakyReLU:
		return "leaky"
	default:
		return fmt.Sprintf("Activation(%d)", int(a))
	}
}

// ParseActivation converts a .cfg activation name.
func ParseActivation(s string) (Activation, error) {
	switch s {
	case "linear":
		return Linear, nil
	case "relu":
		return ReLU, nil
	case "leaky":
		return LeakyReLU, nil
	default:
		return 0, fmt.Errorf("darknet: unknown activation %q", s)
	}
}

func activate(a Activation, v []float32) {
	switch a {
	case ReLU:
		for i, x := range v {
			if x < 0 {
				v[i] = 0
			}
		}
	case LeakyReLU:
		for i, x := range v {
			// The sign bit, not x < 0: -0 scales to itself either way.
			v[i] = x * leakyScale[math.Float32bits(x)>>31]
		}
	}
}

// gradActivate multiplies delta by the activation derivative evaluated
// at the pre-activation output (using post-activation values, which is
// valid for piecewise-linear activations).
func gradActivate(a Activation, out, delta []float32) {
	switch a {
	case ReLU:
		for i, x := range out {
			if x <= 0 {
				delta[i] = 0
			}
		}
	case LeakyReLU:
		for i, x := range out {
			side := 0
			if x <= 0 {
				side = 1
			}
			delta[i] *= leakyScale[side&1]
		}
	}
}

// Shape is a (channels, height, width) activation volume.
type Shape struct {
	C, H, W int
}

// Size returns the number of elements in the volume.
func (s Shape) Size() int { return s.C * s.H * s.W }

// String implements fmt.Stringer.
func (s Shape) String() string { return fmt.Sprintf("%dx%dx%d", s.C, s.H, s.W) }

// Layer is one network stage. Forward consumes a batch of input volumes
// (batch x InShape laid out row-major) and returns the batch of outputs;
// Backward consumes the loss gradient w.r.t. the layer output and
// returns the gradient w.r.t. the layer input, accumulating parameter
// gradients; Update applies SGD.
type Layer interface {
	// Kind returns the .cfg section name, e.g. "convolutional".
	Kind() string
	// InShape and OutShape describe the activation volumes.
	InShape() Shape
	OutShape() Shape
	// Forward runs the layer on batch samples. train enables
	// training-only behaviour (batch-norm batch statistics). The
	// returned slice aliases per-layer reusable scratch: it is valid
	// until the layer's next Forward, so callers that retain outputs
	// across passes must copy them.
	Forward(x []float32, batch int, train bool) ([]float32, error)
	// Backward propagates delta (d loss / d output) and returns
	// d loss / d input. Must follow a Forward with the same batch.
	// The returned slice aliases per-layer scratch, valid until the
	// layer's next Backward.
	Backward(delta []float32) ([]float32, error)
	// Update applies accumulated gradients with the given learning
	// rate and momentum, then zeroes them.
	Update(lr, momentum, decay float32)
	// Params returns the layer's parameter buffers in a stable order.
	// Mirroring encrypts each buffer separately (28 B metadata per
	// sealed segment; a buffer over 1 MiB is several segments).
	Params() [][]float32
	// Grads returns the gradient buffers matching Params.
	Grads() [][]float32
}

// Errors shared by layer implementations.
var (
	ErrBatchMismatch = errors.New("darknet: backward called without matching forward")
	ErrBadInput      = errors.New("darknet: input length does not match batch x shape")
	ErrBadConfig     = errors.New("darknet: invalid layer configuration")
)

func checkInput(x []float32, batch int, in Shape) error {
	if batch <= 0 || len(x) != batch*in.Size() {
		return fmt.Errorf("%w: len=%d batch=%d shape=%v", ErrBadInput, len(x), batch, in)
	}
	return nil
}

// initScaled fills w with He-style scaled uniform noise. A nil rng
// leaves w zero: the caller is about to overwrite the parameters (a
// restore from PM), so the init would be thrown away.
func initScaled(rng *rand.Rand, w []float32, fanIn int) {
	if rng == nil {
		return
	}
	if fanIn <= 0 {
		fanIn = 1
	}
	scale := float32(2) / float32(fanIn)
	// sqrt via iteration-free conversion.
	s := sqrt32(scale)
	for i := range w {
		w[i] = (rng.Float32()*2 - 1) * s
	}
}

func sqrt32(v float32) float32 {
	if v <= 0 {
		return 0
	}
	x := v
	for i := 0; i < 16; i++ {
		x = 0.5 * (x + v/x)
	}
	return x
}

// axpy: y += a*x
func axpy(a float32, x, y []float32) {
	for i, v := range x {
		y[i] += a * v
	}
}

// sgdStep applies v = momentum*v - lr*(g + decay*w); w += v and zeroes g.
func sgdStep(w, g, v []float32, lr, momentum, decay float32) {
	for i := range w {
		grad := g[i] + decay*w[i]
		v[i] = momentum*v[i] - lr*grad
		w[i] += v[i]
		g[i] = 0
	}
}

// gemm computes C += A * B for row-major A (m x k), B (k x n), C (m x n).
// Large multiplies shard output rows across the par.For worker pool
// (parallel.go); the result is bit-identical to gemmScalar either way.
func gemm(m, k, n int, a, b, c []float32) { shapeAB.run(true, m, k, n, a, b, c) }

// gemmTA computes C += Aᵀ * B for A (k x m), B (k x n), C (m x n).
func gemmTA(m, k, n int, a, b, c []float32) { shapeTA.run(true, m, k, n, a, b, c) }

// gemmTB computes C += A * Bᵀ for A (m x k), B (n x k), C (m x n).
func gemmTB(m, k, n int, a, b, c []float32) { shapeTB.run(true, m, k, n, a, b, c) }

// gemmScalar is the single-threaded reference for gemm: the paper's
// "fairly intensive single-threaded application" inner loop, kept as
// the ground truth the blocked kernels are tested bit-identical to.
func gemmScalar(m, k, n int, a, b, c []float32) {
	for i := 0; i < m; i++ {
		arow := a[i*k : i*k+k]
		crow := c[i*n : i*n+n]
		for p := 0; p < k; p++ {
			av := arow[p]
			if av == 0 {
				continue
			}
			brow := b[p*n : p*n+n]
			for j, bv := range brow {
				crow[j] += av * bv
			}
		}
	}
}

// gemmTAScalar is the single-threaded reference for gemmTA.
func gemmTAScalar(m, k, n int, a, b, c []float32) {
	for p := 0; p < k; p++ {
		arow := a[p*m : p*m+m]
		brow := b[p*n : p*n+n]
		for i, av := range arow {
			if av == 0 {
				continue
			}
			crow := c[i*n : i*n+n]
			for j, bv := range brow {
				crow[j] += av * bv
			}
		}
	}
}

// gemmTBScalar is the single-threaded reference for gemmTB.
func gemmTBScalar(m, k, n int, a, b, c []float32) {
	for i := 0; i < m; i++ {
		arow := a[i*k : i*k+k]
		crow := c[i*n : i*n+n]
		for j := 0; j < n; j++ {
			brow := b[j*k : j*k+k]
			var sum float32
			for p, av := range arow {
				sum += av * brow[p]
			}
			crow[j] += sum
		}
	}
}

// scratchF32 returns a zeroed length-n float32 slice backed by *buf,
// growing it when needed — the per-layer reusable scratch that keeps
// the serving hot path allocation-free (buffers are keyed by the
// requested size, so a changed batch grows once and is then reused).
func scratchF32(buf *[]float32, n int) []float32 {
	if cap(*buf) < n {
		*buf = make([]float32, n)
		return *buf
	}
	s := (*buf)[:n]
	clear(s)
	return s
}

// growF32 returns a length-n float32 slice backed by *buf WITHOUT
// zeroing recycled memory; for scratch whose every element is written
// before being read.
func growF32(buf *[]float32, n int) []float32 {
	if cap(*buf) < n {
		*buf = make([]float32, n)
	}
	return (*buf)[:n]
}
