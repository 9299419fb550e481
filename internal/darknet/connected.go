package darknet

import (
	"fmt"
	"math/rand"

	"plinius/internal/par"
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

	// tiles holds a ForwardTiled pass's operands for tileRange, its
	// par.ForErr body, which is bound on the first ForwardTiled.
	tiles     tilePass
	tileRange func(lo, hi int) error
}

// tilePass is one ForwardTiled pass.
type tilePass struct {
	x, out []float32
	batch  int
	w      WeightSegments
}

// WeightSegments is a weight matrix that arrives in pieces: that of a
// layer whose weights are not resident, opened from sealed PM as the
// forward pass reaches it. Piece s of the Segments() = k pieces holds
// the matrix's elements [s·len/k, (s+1)·len/k), the split the mirror
// seals a buffer in. OpenSegment fills dst, exactly the piece's length,
// or returns an error, after which dst must not be read.
type WeightSegments interface {
	Segments() int
	OpenSegment(s int, dst []float32) error
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
	c.finish(x, out, batch)
	return out, nil
}

// finish adds the biases to out = x Wᵀ, activates it and keeps what
// Backward needs.
func (c *Connected) finish(x, out []float32, batch int) {
	outs := c.out.C
	for b := 0; b < batch; b++ {
		axpy(1, c.biases, out[b*outs:(b+1)*outs])
	}
	activate(c.activation, out)
	c.lastX = x
	c.lastOut = out
	c.lastBatch = batch
}

// RowTiled reports whether each of the k pieces WeightSegments splits
// the weights into holds whole rows, one per output, so ForwardTiled
// can take them.
func (c *Connected) RowTiled(k int) bool {
	n, in := len(c.weights), c.in.Size()
	if k <= 0 {
		return false
	}
	for s := 1; s < k; s++ {
		if s*n/k%in != 0 {
			return false
		}
	}
	return true
}

// ForwardTiled is Forward with the weights drawn from w instead of the
// layer's own buffer, which it leaves untouched. Each piece opens into
// a pooled scratch tile (1 MiB for a piece the mirror seals, so it
// stays in L2) and at once yields the outputs of its rows, before the
// next piece opens; the pieces run on par.ForErr. Every output is the
// same ascending-p dot product Forward computes, so the result is
// bit-identical. The pieces must hold whole rows (RowTiled). A piece
// that fails to open fails the pass.
func (c *Connected) ForwardTiled(x []float32, batch int, w WeightSegments) ([]float32, error) {
	if err := checkInput(x, batch, c.in); err != nil {
		return nil, err
	}
	k := w.Segments()
	if !c.RowTiled(k) {
		return nil, fmt.Errorf("%w: %d weight pieces of a %dx%d matrix are not whole rows", ErrBadConfig, k, c.out.C, c.in.Size())
	}
	out := growF32(&c.outBuf, batch*c.out.C)
	if c.tileRange == nil {
		c.tileRange = c.forwardTiles
	}
	c.tiles = tilePass{x: x, out: out, batch: batch, w: w}
	var err error
	if serial(k, 1) {
		err = c.forwardTiles(0, k)
	} else {
		err = par.ForErr(k, 1, c.tileRange)
	}
	c.tiles = tilePass{}
	if err != nil {
		return nil, err
	}
	c.finish(x, out, batch)
	return out, nil
}

// forwardTiles opens pieces [lo, hi) of a ForwardTiled pass one at a
// time into one scratch tile and writes their rows' output columns.
func (c *Connected) forwardTiles(lo, hi int) error {
	p := &c.tiles
	in, outs, k := c.in.Size(), c.out.C, p.w.Segments()
	bp := scratchPool.Get().(*[]float32)
	defer scratchPool.Put(bp)
	for s := lo; s < hi; s++ {
		r0, r1 := s*len(c.weights)/k/in, (s+1)*len(c.weights)/k/in
		rows := r1 - r0
		buf := growF32(bp, (in+p.batch)*rows)
		tile, tileOut := buf[:in*rows], buf[in*rows:]
		if err := p.w.OpenSegment(s, tile); err != nil {
			return err
		}
		// tileOut = x (batch x in) * tileᵀ (in x rows), on this worker.
		shapeTB.run(false, true, p.batch, in, rows, p.x, tile, tileOut)
		for b := 0; b < p.batch; b++ {
			copy(p.out[b*outs+r0:b*outs+r1], tileOut[b*rows:(b+1)*rows])
		}
	}
	return nil
}

// Backward implements Layer.
func (c *Connected) Backward(delta []float32) ([]float32, error) { return c.backward(delta, true) }

// backward is Backward that, unless wantDX is set, leaves out the input
// gradient's GEMM and returns nil for it. The weight and bias gradients
// are the same either way.
func (c *Connected) backward(delta []float32, wantDX bool) ([]float32, error) {
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
	if !wantDX {
		return nil, nil
	}
	// dx = delta (batch x outs) * W (outs x in)
	dx := growF32(&c.dxBuf, batch*inSize)
	shapeAB.run(true, true, batch, outs, inSize, delta, c.weights, dx)
	return dx, nil
}

// Update implements Layer.
func (c *Connected) Update(lr, momentum, decay float32) {
	c.allocGrads()
	sgdStep(c.weights, c.gWeights, &c.vWeights, lr, momentum, decay)
	sgdStep(c.biases, c.gBiases, &c.vBiases, lr, momentum, 0)
}
