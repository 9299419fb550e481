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
//
// Layers allocate gradients on their first backward pass and velocity
// on their first update at momentum ≠ 0, so a network that only runs
// forward passes holds its parameters once. Velocity is not mirrored:
// a resume at momentum ≠ 0 restarts it at zero.
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

// addBiasActivate adds bias to every element of v and applies the
// activation, in one pass: the same two roundings as an add pass then
// an activation pass.
func addBiasActivate(a Activation, bias float32, v []float32) {
	switch a {
	case ReLU:
		for i, x := range v {
			if x += bias; x < 0 {
				x = 0
			}
			v[i] = x
		}
	case LeakyReLU:
		if n := len(v) &^ 7; live >= tierAVX2 && n > 0 {
			biasLeakyAVX2(&v[0], n, bias, leakyScale[1])
			v = v[n:]
		}
		for i, x := range v {
			x += bias
			v[i] = x * leakyScale[math.Float32bits(x)>>31]
		}
	default:
		for i := range v {
			v[i] += bias
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
			delta[i] *= leakyGrad(x)
		}
	}
}

// gradActivateSums is gradActivate over consecutive planes of out and
// delta, one per element of sums, that also sets sums[f] to the sum of
// plane f's rewritten delta, added in ascending order from zero. Each
// product is rounded before it is summed, so no multiply-add fuses. The
// leaky pass runs four planes side by side, so four independent sums
// share the add latency of one.
func gradActivateSums(a Activation, out, delta, sums []float32) {
	n := len(out) / max(1, len(sums))
	if a == LeakyReLU {
		for ; len(sums) >= 4; sums = sums[4:] {
			leakyGradSum4(out[:4*n], delta[:4*n], n, sums[:4])
			out, delta = out[4*n:], delta[4*n:]
		}
	}
	for f := range sums {
		o, d := out[f*n:(f+1)*n], delta[f*n:(f+1)*n]
		var sum float32
		switch a {
		case ReLU:
			for i, x := range o {
				if x <= 0 {
					d[i] = 0
				}
				sum += d[i]
			}
		case LeakyReLU:
			for i, x := range o {
				v := float32(d[i] * leakyGrad(x))
				d[i] = v
				sum += v
			}
		default:
			for _, v := range d {
				sum += v
			}
		}
		sums[f] = sum
	}
}

// leakyGradSum4 is gradActivateSums' leaky pass over four planes of n:
// on AVX2 for the first n &^ 7 elements of each, then on in Go from the
// sums so far.
func leakyGradSum4(out, delta []float32, n int, sums []float32) {
	o0, o1, o2, o3 := out[:n], out[n:2*n], out[2*n:3*n], out[3*n:4*n]
	d0, d1, d2, d3 := delta[:n], delta[n:2*n], delta[2*n:3*n], delta[3*n:4*n]
	var s0, s1, s2, s3 float32
	start := 0
	if n8 := n &^ 7; live >= tierAVX2 && n8 > 0 {
		leakyGradSum4AVX2(&o0[0], &d0[0], n, n8, leakyScale[1], &sums[0])
		s0, s1, s2, s3, start = sums[0], sums[1], sums[2], sums[3], n8
	}
	for i := start; i < n; i++ {
		v0 := float32(d0[i] * leakyGrad(o0[i]))
		v1 := float32(d1[i] * leakyGrad(o1[i]))
		v2 := float32(d2[i] * leakyGrad(o2[i]))
		v3 := float32(d3[i] * leakyGrad(o3[i]))
		d0[i], d1[i], d2[i], d3[i] = v0, v1, v2, v3
		s0 += v0
		s1 += v1
		s2 += v2
		s3 += v3
	}
	sums[0], sums[1], sums[2], sums[3] = s0, s1, s2, s3
}

// leakyGrad is the leaky-ReLU derivative at post-activation x.
func leakyGrad(x float32) float32 {
	side := 0
	if x <= 0 {
		side = 1
	}
	return leakyScale[side&1]
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

// addRow adds src into dst element by element: dst[i] += src[i]. On
// the assembly tiers it is the axpy micro-kernel at k = 1 with A = {1}:
// multiplying by 1 is exact, so each element gets exactly dst + src.
func addRow(dst, src []float32) {
	dst = dst[:len(src)]
	if live >= tierAVX2 {
		axpySweep(live, false, 1, len(src), rowAddScale[:], 0, 0, src, rowAddOff[:], dst, 0, 1)
		return
	}
	for i, v := range src {
		dst[i] += v
	}
}

var (
	rowAddScale = [1]float32{1}
	rowAddOff   = [1]int{0}
)

// sgdStep applies v = momentum*v - lr*(g + decay*w); w += v and zeroes
// g. The velocity *v is made on the first step at momentum ≠ 0. While
// it is nil the step is w += -(lr*grad): for every finite value but the
// sign of a zero weight, the same arithmetic as v = 0*0 - lr*grad;
// w += v. The conversion rounds lr*grad, so the step cannot fuse into
// a multiply-add that the velocity form never computes.
func sgdStep(w, g []float32, v *[]float32, lr, momentum, decay float32) {
	if momentum != 0 && *v == nil {
		*v = make([]float32, len(w))
	}
	vel := *v
	if vel == nil {
		for i := range w {
			grad := g[i] + decay*w[i]
			w[i] += -float32(lr * grad)
			g[i] = 0
		}
		return
	}
	for i := range w {
		grad := g[i] + decay*w[i]
		vel[i] = momentum*vel[i] - lr*grad
		w[i] += vel[i]
		g[i] = 0
	}
}

// gemm computes C += A * B for row-major A (m x k), B (k x n), C (m x n).
// Large multiplies shard output rows across the par.For worker pool
// (parallel.go); the result is bit-identical to gemmScalar either way.
func gemm(m, k, n int, a, b, c []float32) { shapeAB.run(true, false, m, k, n, a, b, c) }

// gemmTA computes C += Aᵀ * B for A (k x m), B (k x n), C (m x n).
func gemmTA(m, k, n int, a, b, c []float32) { shapeTA.run(true, false, m, k, n, a, b, c) }

// gemmTB computes C += A * Bᵀ for A (m x k), B (n x k), C (m x n).
func gemmTB(m, k, n int, a, b, c []float32) { shapeTB.run(true, false, m, k, n, a, b, c) }

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
