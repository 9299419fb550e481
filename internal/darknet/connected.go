package darknet

import (
	"fmt"
	"math/rand"
)

// Connected is a fully-connected layer: out = activation(x Wᵀ + b).
// Gradients appear on the first Backward or Update and velocity on the
// first Update at momentum ≠ 0; velocity is not mirrored.
type Connected struct {
	in, out Shape

	weights, biases   []float32
	gWeights, gBiases []float32
	vWeights, vBiases []float32
	activation        Activation
	lastX, lastOut    []float32
	lastBatch         int

	// outBuf and dxBuf are reusable forward/backward scratch (grown to
	// the largest batch seen), so steady-state serving and training
	// allocate nothing per call. Forward's return value aliases outBuf
	// and is valid until the layer's next Forward.
	outBuf, dxBuf []float32
}

var _ Layer = (*Connected)(nil)

// NewConnected builds a fully-connected layer mapping the flattened
// input volume to outputs neurons.
func NewConnected(in Shape, outputs int, act Activation, rng *rand.Rand) (*Connected, error) {
	if outputs <= 0 {
		return nil, fmt.Errorf("%w: connected outputs=%d", ErrBadConfig, outputs)
	}
	if act == 0 {
		act = Linear
	}
	inSize := in.Size()
	c := &Connected{
		in:         in,
		out:        Shape{C: outputs, H: 1, W: 1},
		weights:    make([]float32, outputs*inSize),
		biases:     make([]float32, outputs),
		activation: act,
	}
	initScaled(rng, c.weights, inSize)
	return c, nil
}

// Kind implements Layer.
func (c *Connected) Kind() string { return "connected" }

// InShape implements Layer.
func (c *Connected) InShape() Shape { return c.in }

// OutShape implements Layer.
func (c *Connected) OutShape() Shape { return c.out }

// Params implements Layer.
func (c *Connected) Params() [][]float32 { return [][]float32{c.weights, c.biases} }

// Grads implements Layer. Both slots are nil before the first Backward
// or Update.
func (c *Connected) Grads() [][]float32 { return [][]float32{c.gWeights, c.gBiases} }

// allocGrads gives the layer its gradient buffers on first use.
func (c *Connected) allocGrads() {
	if c.gWeights == nil {
		c.gWeights = make([]float32, len(c.weights))
		c.gBiases = make([]float32, len(c.biases))
	}
}

// Forward implements Layer.
func (c *Connected) Forward(x []float32, batch int, train bool) ([]float32, error) {
	if err := checkInput(x, batch, c.in); err != nil {
		return nil, err
	}
	inSize := c.in.Size()
	outs := c.out.C
	out := scratchF32(&c.outBuf, batch*outs)
	// out = x (batch x in) * Wᵀ (in x outs)
	gemmTB(batch, inSize, outs, x, c.weights, out)
	for b := 0; b < batch; b++ {
		axpy(1, c.biases, out[b*outs:(b+1)*outs])
	}
	activate(c.activation, out)
	c.lastX = x
	c.lastOut = out
	c.lastBatch = batch
	return out, nil
}

// Backward implements Layer.
func (c *Connected) Backward(delta []float32) ([]float32, error) {
	if c.lastBatch == 0 || len(delta) != c.lastBatch*c.out.C {
		return nil, ErrBatchMismatch
	}
	batch := c.lastBatch
	c.allocGrads()
	gradActivate(c.activation, c.lastOut, delta)
	inSize := c.in.Size()
	outs := c.out.C
	for b := 0; b < batch; b++ {
		axpy(1, delta[b*outs:(b+1)*outs], c.gBiases)
	}
	// dW += deltaᵀ (outs x batch) * x (batch x in)
	gemmTA(outs, batch, inSize, delta, c.lastX, c.gWeights)
	// dx = delta (batch x outs) * W (outs x in)
	dx := scratchF32(&c.dxBuf, batch*inSize)
	gemm(batch, outs, inSize, delta, c.weights, dx)
	return dx, nil
}

// Update implements Layer.
func (c *Connected) Update(lr, momentum, decay float32) {
	c.allocGrads()
	sgdStep(c.weights, c.gWeights, &c.vWeights, lr, momentum, decay)
	sgdStep(c.biases, c.gBiases, &c.vBiases, lr, momentum, 0)
}
