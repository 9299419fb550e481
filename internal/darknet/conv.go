package darknet

import (
	"fmt"
	"math/rand"
)

// ConvConfig parameterises a convolutional layer.
type ConvConfig struct {
	Filters    int
	Size       int
	Stride     int
	Pad        int
	Activation Activation
	BatchNorm  bool
}

// Conv is a 2-D convolutional layer with optional batch normalisation.
// As in Darknet, the layer always carries five parameter buffers —
// weights, biases, scales, rolling mean, rolling variance — so the
// mirroring module's per-layer encryption metadata matches the paper's
// 140 B/layer accounting even when batch norm is disabled.
// convGeom is the shared geometry of a convolutional layer — input
// and output volumes plus kernel configuration — factored out so the
// fp32 Conv and the int8 QuantConv share the im2col/col2im machinery.
type convGeom struct {
	in, out Shape
	cfg     ConvConfig
}

type Conv struct {
	convGeom

	weights, biases            []float32
	scales, rollMean, rollVar  []float32
	gWeights, gBiases, gScales []float32
	vWeights, vBiases, vScales []float32
	batchMean, batchVar        []float32
	gMean, gVar                []float32
	lastCols, lastOut          []float32
	preBN, xhat                []float32
	lastBatch                  int

	// outBuf, dxBuf and gradParts (one dW ‖ db partial per sample) are
	// reusable forward/backward scratch (grown to the largest batch
	// seen), keeping the hot serve/train paths allocation-free.
	// Forward's return value aliases outBuf and is valid until the
	// layer's next Forward.
	outBuf, dxBuf, gradParts []float32
}

var _ Layer = (*Conv)(nil)

// NewConv builds a convolutional layer for the given input volume.
func NewConv(in Shape, cfg ConvConfig, rng *rand.Rand) (*Conv, error) {
	if cfg.Filters <= 0 || cfg.Size <= 0 || cfg.Stride <= 0 || cfg.Pad < 0 {
		return nil, fmt.Errorf("%w: conv %+v", ErrBadConfig, cfg)
	}
	if cfg.Activation == 0 {
		cfg.Activation = LeakyReLU
	}
	outH := (in.H+2*cfg.Pad-cfg.Size)/cfg.Stride + 1
	outW := (in.W+2*cfg.Pad-cfg.Size)/cfg.Stride + 1
	if outH <= 0 || outW <= 0 {
		return nil, fmt.Errorf("%w: conv output %dx%d", ErrBadConfig, outH, outW)
	}
	k := in.C * cfg.Size * cfg.Size
	c := &Conv{
		convGeom: convGeom{in: in, out: Shape{C: cfg.Filters, H: outH, W: outW}, cfg: cfg},
		weights:  make([]float32, cfg.Filters*k),
		biases:   make([]float32, cfg.Filters),
		scales:   make([]float32, cfg.Filters),
		rollMean: make([]float32, cfg.Filters),
		rollVar:  make([]float32, cfg.Filters),
		gWeights: make([]float32, cfg.Filters*k),
		gBiases:  make([]float32, cfg.Filters),
		gScales:  make([]float32, cfg.Filters),
		vWeights: make([]float32, cfg.Filters*k),
		vBiases:  make([]float32, cfg.Filters),
		vScales:  make([]float32, cfg.Filters),
	}
	initScaled(rng, c.weights, k)
	for i := range c.scales {
		c.scales[i] = 1
		c.rollVar[i] = 1
	}
	return c, nil
}

// Kind implements Layer.
func (c *Conv) Kind() string { return "convolutional" }

// InShape implements Layer.
func (c *Conv) InShape() Shape { return c.in }

// OutShape implements Layer.
func (c *Conv) OutShape() Shape { return c.out }

// Params implements Layer: the five Darknet conv parameter buffers.
func (c *Conv) Params() [][]float32 {
	return [][]float32{c.weights, c.biases, c.scales, c.rollMean, c.rollVar}
}

// Grads implements Layer. Rolling statistics have no gradients; they
// are updated by forward passes, so their slots are nil.
func (c *Conv) Grads() [][]float32 {
	return [][]float32{c.gWeights, c.gBiases, c.gScales, nil, nil}
}

func (c *convGeom) kcols() int { return c.in.C * c.cfg.Size * c.cfg.Size }

// validRange returns the output positions [lo, hi) along one axis
// whose input position o*stride+off-pad lies inside [0, inDim); the
// rest read padding.
func (c *convGeom) validRange(off, inDim, outDim int) (lo, hi int) {
	stride, pad := c.cfg.Stride, c.cfg.Pad
	if pad > off {
		lo = (pad - off + stride - 1) / stride
	}
	if last := inDim - 1 + pad - off; last >= 0 {
		hi = min(last/stride+1, outDim)
	}
	return min(lo, hi), hi
}

// im2col expands one input volume into a (k x outH*outW) column
// matrix a row segment at a time: padding is cleared, and the in-bounds
// span [oxLo, oxHi) of each output row is one (strided) copy.
func (c *convGeom) im2col(x []float32, cols []float32) {
	size, stride, pad := c.cfg.Size, c.cfg.Stride, c.cfg.Pad
	inH, inW, outH, outW := c.in.H, c.in.W, c.out.H, c.out.W
	row := 0
	for ch := 0; ch < c.in.C; ch++ {
		plane := x[ch*inH*inW : (ch+1)*inH*inW]
		for ky := 0; ky < size; ky++ {
			oyLo, oyHi := c.validRange(ky, inH, outH)
			for kx := 0; kx < size; kx++ {
				oxLo, oxHi := c.validRange(kx, inW, outW)
				dst := cols[row : row+outH*outW]
				row += outH * outW
				clear(dst[:oyLo*outW])
				clear(dst[oyHi*outW:])
				for oy := oyLo; oy < oyHi; oy++ {
					d := dst[oy*outW : (oy+1)*outW]
					clear(d[:oxLo])
					clear(d[oxHi:])
					src := plane[(oy*stride+ky-pad)*inW+oxLo*stride+kx-pad:]
					if stride == 1 {
						copy(d[oxLo:oxHi], src)
						continue
					}
					for i := range d[oxLo:oxHi] {
						d[oxLo+i] = src[i*stride]
					}
				}
			}
		}
	}
}

// col2im scatters a column-matrix gradient back into an input-volume
// gradient (accumulating) over im2col's row segments, in (channel, ky,
// kx, oy, ox) order: the per-pixel order, for every dx element.
func (c *convGeom) col2im(cols []float32, dx []float32) {
	size, stride, pad := c.cfg.Size, c.cfg.Stride, c.cfg.Pad
	inH, inW, outH, outW := c.in.H, c.in.W, c.out.H, c.out.W
	row := 0
	for ch := 0; ch < c.in.C; ch++ {
		plane := dx[ch*inH*inW : (ch+1)*inH*inW]
		for ky := 0; ky < size; ky++ {
			oyLo, oyHi := c.validRange(ky, inH, outH)
			for kx := 0; kx < size; kx++ {
				oxLo, oxHi := c.validRange(kx, inW, outW)
				for oy := oyLo; oy < oyHi; oy++ {
					src := cols[row+oy*outW+oxLo : row+oy*outW+oxHi]
					d := plane[(oy*stride+ky-pad)*inW+oxLo*stride+kx-pad:]
					if stride == 1 {
						d = d[:len(src)]
						for i, v := range src {
							d[i] += v
						}
						continue
					}
					for i, v := range src {
						d[i*stride] += v
					}
				}
				row += outH * outW
			}
		}
	}
}

// biasActivate adds the per-filter biases to out (whole samples) and
// applies the activation. Biases come after batch norm, as in Darknet,
// where they act as the BN beta.
func (c *convGeom) biasActivate(biases, out []float32) {
	outHW := c.out.H * c.out.W
	for p := 0; p*outHW < len(out); p++ {
		bias := biases[p%c.cfg.Filters]
		plane := out[p*outHW : (p+1)*outHW]
		for i := range plane {
			plane[i] += bias
		}
	}
	activate(c.cfg.Activation, out)
}

// sampleFlops is the multiply-add count of one sample's forward GEMM.
func (c *convGeom) sampleFlops() int { return c.cfg.Filters * c.kcols() * c.out.H * c.out.W }

// Forward implements Layer. The pass forks once over the samples of
// the batch: each worker takes a run of samples through im2col, GEMM,
// bias and activation, so a sample stays in one core's cache. A batch
// too small to shard runs inline and lets its GEMMs fork over output
// rows instead.
func (c *Conv) Forward(x []float32, batch int, train bool) ([]float32, error) {
	if err := checkInput(x, batch, c.in); err != nil {
		return nil, err
	}
	c.lastCols = growF32(&c.lastCols, batch*c.kcols()*c.out.H*c.out.W)
	out := growF32(&c.outBuf, batch*c.out.Size())
	if chunk := minChunk(c.sampleFlops()); kernelChunks(batch, chunk) == 1 {
		c.forwardSamples(x, out, 0, batch, true)
	} else {
		parallelFor(batch, chunk, func(lo, hi int) { c.forwardSamples(x, out, lo, hi, false) })
	}
	c.lastBatch = batch
	if c.cfg.BatchNorm {
		c.forwardBatchNorm(out, batch, train)
		c.biasActivate(c.biases, out)
	}
	c.lastOut = out
	return out, nil
}

// forwardSamples takes samples [lo, hi) through im2col, GEMM and —
// unless batch norm must see the whole batch first — bias, activation.
func (c *Conv) forwardSamples(x, out []float32, lo, hi int, fork bool) {
	k, outHW := c.kcols(), c.out.H*c.out.W
	inSize, outSize, colSize := c.in.Size(), c.out.Size(), k*outHW
	for b := lo; b < hi; b++ {
		cols := c.lastCols[b*colSize : (b+1)*colSize]
		o := out[b*outSize : (b+1)*outSize]
		c.im2col(x[b*inSize:(b+1)*inSize], cols)
		clear(o)
		shapeAB.run(fork, c.cfg.Filters, k, outHW, c.weights, cols, o)
		if !c.cfg.BatchNorm {
			c.biasActivate(c.biases, o)
		}
	}
}

const bnEps = 1e-5
const bnMomentum = 0.99

func (c *Conv) forwardBatchNorm(out []float32, batch int, train bool) {
	outHW := c.out.H * c.out.W
	outSize := c.out.Size()
	if cap(c.batchMean) < c.cfg.Filters {
		c.batchMean = make([]float32, c.cfg.Filters)
		c.batchVar = make([]float32, c.cfg.Filters)
	}
	c.batchMean = c.batchMean[:c.cfg.Filters]
	c.batchVar = c.batchVar[:c.cfg.Filters]

	if cap(c.preBN) < len(out) {
		c.preBN = make([]float32, len(out))
		c.xhat = make([]float32, len(out))
	}
	c.preBN = c.preBN[:len(out)]
	c.xhat = c.xhat[:len(out)]
	copy(c.preBN, out)

	n := float32(batch * outHW)
	var mean, varv []float32
	if train {
		for f := 0; f < c.cfg.Filters; f++ {
			var sum float32
			for b := 0; b < batch; b++ {
				base := b*outSize + f*outHW
				for i := 0; i < outHW; i++ {
					sum += out[base+i]
				}
			}
			m := sum / n
			var sq float32
			for b := 0; b < batch; b++ {
				base := b*outSize + f*outHW
				for i := 0; i < outHW; i++ {
					d := out[base+i] - m
					sq += d * d
				}
			}
			c.batchMean[f] = m
			c.batchVar[f] = sq / n
			c.rollMean[f] = bnMomentum*c.rollMean[f] + (1-bnMomentum)*m
			c.rollVar[f] = bnMomentum*c.rollVar[f] + (1-bnMomentum)*c.batchVar[f]
		}
		mean, varv = c.batchMean, c.batchVar
	} else {
		mean, varv = c.rollMean, c.rollVar
	}
	for f := 0; f < c.cfg.Filters; f++ {
		inv := 1 / sqrt32(varv[f]+bnEps)
		scale := c.scales[f]
		m := mean[f]
		for b := 0; b < batch; b++ {
			base := b*outSize + f*outHW
			for i := 0; i < outHW; i++ {
				xh := (out[base+i] - m) * inv
				c.xhat[base+i] = xh
				out[base+i] = scale * xh
			}
		}
	}
}

// Backward implements Layer, forking once over samples like Forward.
// Each sample's weight and bias gradients land in its own partial and
// are reduced in ascending sample order — the serial accumulation
// order, so the gradients are bit-identical however samples shard.
func (c *Conv) Backward(delta []float32) ([]float32, error) {
	if c.lastBatch == 0 || len(delta) != c.lastBatch*c.out.Size() {
		return nil, ErrBatchMismatch
	}
	batch := c.lastBatch
	parts := growF32(&c.gradParts, batch*(len(c.gWeights)+len(c.gBiases)))
	dx := growF32(&c.dxBuf, batch*c.in.Size())
	if c.cfg.BatchNorm {
		// Needs the whole batch's activation gradients first.
		for b := 0; b < batch; b++ {
			c.backwardActivation(delta, parts, b)
		}
		c.backwardBatchNorm(delta, batch)
	}
	if chunk := minChunk(2 * c.sampleFlops()); kernelChunks(batch, chunk) == 1 {
		c.backwardSamples(delta, dx, parts, 0, batch, true)
	} else {
		parallelFor(batch, chunk, func(lo, hi int) { c.backwardSamples(delta, dx, parts, lo, hi, false) })
	}
	for b := 0; b < batch; b++ {
		dW, db := c.gradPart(parts, b)
		axpy(1, dW, c.gWeights)
		axpy(1, db, c.gBiases)
	}
	return dx, nil
}

// gradPart returns sample b's dW and db partials within parts.
func (c *Conv) gradPart(parts []float32, b int) (dW, db []float32) {
	nW, n := len(c.gWeights), len(c.gWeights)+len(c.gBiases)
	return parts[b*n : b*n+nW], parts[b*n+nW : (b+1)*n]
}

// backwardActivation rewrites sample b's delta through the activation
// derivative and sums it per filter into the sample's bias partial.
func (c *Conv) backwardActivation(delta, parts []float32, b int) {
	outHW, outSize := c.out.H*c.out.W, c.out.Size()
	d := delta[b*outSize : (b+1)*outSize]
	gradActivate(c.cfg.Activation, c.lastOut[b*outSize:(b+1)*outSize], d)
	_, db := c.gradPart(parts, b)
	for f := range db {
		var sum float32
		for _, v := range d[f*outHW : (f+1)*outHW] {
			sum += v
		}
		db[f] = sum
	}
}

// backwardSamples computes, for samples [lo, hi), the weight-gradient
// partial dout x colsᵀ and the input gradient col2im(Wᵀ x dout).
func (c *Conv) backwardSamples(delta, dx, parts []float32, lo, hi int, fork bool) {
	k, filters, outHW := c.kcols(), c.cfg.Filters, c.out.H*c.out.W
	inSize, outSize, colSize := c.in.Size(), c.out.Size(), k*outHW
	bp := scratchPool.Get().(*[]float32)
	dcols := growF32(bp, colSize)
	for b := lo; b < hi; b++ {
		if !c.cfg.BatchNorm {
			c.backwardActivation(delta, parts, b)
		}
		dout := delta[b*outSize : (b+1)*outSize]
		dW, _ := c.gradPart(parts, b)
		clear(dW)
		shapeTB.run(fork, filters, outHW, k, dout, c.lastCols[b*colSize:(b+1)*colSize], dW)
		clear(dcols)
		shapeTA.run(fork, k, filters, outHW, c.weights, dout, dcols)
		dxb := dx[b*inSize : (b+1)*inSize]
		clear(dxb)
		c.col2im(dcols, dxb)
	}
	scratchPool.Put(bp)
}

// backwardBatchNorm rewrites delta (d loss / d BN output) into
// d loss / d BN input and accumulates scale gradients.
func (c *Conv) backwardBatchNorm(delta []float32, batch int) {
	outHW := c.out.H * c.out.W
	outSize := c.out.Size()
	n := float32(batch * outHW)
	for f := 0; f < c.cfg.Filters; f++ {
		inv := 1 / sqrt32(c.batchVar[f]+bnEps)
		scale := c.scales[f]
		var sumDelta, sumDeltaXhat float32
		for b := 0; b < batch; b++ {
			base := b*outSize + f*outHW
			for i := 0; i < outHW; i++ {
				d := delta[base+i]
				sumDelta += d
				sumDeltaXhat += d * c.xhat[base+i]
			}
		}
		c.gScales[f] += sumDeltaXhat
		for b := 0; b < batch; b++ {
			base := b*outSize + f*outHW
			for i := 0; i < outHW; i++ {
				d := delta[base+i]
				xh := c.xhat[base+i]
				delta[base+i] = scale * inv / n * (n*d - sumDelta - xh*sumDeltaXhat)
			}
		}
	}
}

// Update implements Layer.
func (c *Conv) Update(lr, momentum, decay float32) {
	sgdStep(c.weights, c.gWeights, c.vWeights, lr, momentum, decay)
	sgdStep(c.biases, c.gBiases, c.vBiases, lr, momentum, 0)
	if c.cfg.BatchNorm {
		sgdStep(c.scales, c.gScales, c.vScales, lr, momentum, 0)
	} else {
		for i := range c.gScales {
			c.gScales[i] = 0
		}
	}
}
