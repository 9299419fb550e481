package darknet

// Int8 inference path: train fp32, serve int8. QuantizeNetwork clones
// a trained network into an inference-only variant whose large weight
// matrices are stored as int8 with one symmetric per-buffer scale
// (zero-point 0), while the small vectors — biases, batch-norm scales
// and rolling statistics — stay fp32. The forward path dequantizes on
// accumulate: the int8 weights are widened inside the GEMM inner loop
// and the per-buffer scale is applied once per output element, so no
// fp32 weight matrix is ever materialised and the EPC working set of a
// serving replica shrinks ~4x along with the sealed snapshot payload.
//
// Quantization error: with scale = maxAbs/127, every weight w maps to
// q = round(w/scale) with |w - scale*q| <= scale/2 — the round-trip
// bound the property tests in quant_test.go enforce.

import (
	"errors"
	"fmt"
	"math"

	"plinius/internal/par"
)

// ErrQuantTrain is returned when a quantized (inference-only) layer is
// asked to train.
var ErrQuantTrain = errors.New("darknet: quantized layers are inference-only")

// Precision identifies a serving parameter precision.
type Precision int

// Serving precisions.
const (
	FP32 Precision = iota
	Int8
)

// String implements fmt.Stringer.
func (p Precision) String() string {
	if p == Int8 {
		return "int8"
	}
	return "fp32"
}

// QuantWeightLayer is implemented by layers whose weight matrix is
// stored int8-quantized. A snapshot restore opens sealed bytes straight
// into both buffers, so no fp32 weight matrix is ever materialised.
type QuantWeightLayer interface {
	Layer
	// QuantWeights returns the mutable int8 weight storage.
	QuantWeights() []int8
	// WeightScale returns the mutable one-element buffer holding the
	// symmetric dequantization scale.
	WeightScale() []float32
}

// QuantizeWeights quantizes w symmetrically to int8: scale = max|w|/127
// (1 if w is all zero), q = round(w/scale) clamped to [-127, 127].
func QuantizeWeights(w []float32) ([]int8, float32) {
	var maxAbs float32
	for _, v := range w {
		a := v
		if a < 0 {
			a = -a
		}
		if a > maxAbs {
			maxAbs = a
		}
	}
	scale := maxAbs / 127
	if scale == 0 {
		scale = 1
	}
	q := make([]int8, len(w))
	for i, v := range w {
		r := math.Round(float64(v) / float64(scale))
		if r > 127 {
			r = 127
		} else if r < -127 {
			r = -127
		}
		q[i] = int8(r)
	}
	return q, scale
}

// gemmQRows computes rows [lo, hi) of C = scale * (QA * B) for an int8
// A (m x k), fp32 B (k x n) and fp32 C (m x n, zeroed by the caller):
// the dequantize-on-accumulate kernel. Products accumulate over the
// integer-valued float images of QA's entries and the scale is applied
// once per output element, so only one fp32 multiply per element pays
// for dequantization.
func gemmQRows(k, n int, qa []int8, scale float32, b, c []float32, lo, hi int) {
	for i := lo; i < hi; i++ {
		arow := qa[i*k : i*k+k]
		crow := c[i*n : i*n+n]
		for p := 0; p < k; p++ {
			if arow[p] == 0 {
				continue
			}
			av := float32(arow[p])
			brow := b[p*n : p*n+n]
			for j, bv := range brow {
				crow[j] += av * bv
			}
		}
		for j := range crow {
			crow[j] *= scale
		}
	}
}

// gemmTBQRows computes rows [lo, hi) of C = scale * (A * QBᵀ) for fp32
// A (m x k), int8 B (n x k) and fp32 C (m x n): each output element is
// one dot product of an fp32 activation row with an int8 weight row,
// widened on the fly and scaled once.
func gemmTBQRows(k, n int, a []float32, qb []int8, scale float32, c []float32, lo, hi int) {
	for i := lo; i < hi; i++ {
		arow := a[i*k : i*k+k]
		crow := c[i*n : i*n+n]
		for j := 0; j < n; j++ {
			brow := qb[j*k : j*k+k]
			var sum float32
			for p, av := range arow {
				sum += av * float32(brow[p])
			}
			crow[j] = scale * sum
		}
	}
}

// QuantConv is the int8 inference variant of Conv: weights quantized,
// batch-norm folded through the rolling statistics, no training state.
type QuantConv struct {
	convGeom
	qWeights []int8
	wScale   [1]float32

	biases, scales, rollMean, rollVar []float32

	// outBuf is Forward's reusable output; inlineBuf the column tile of
	// a pass that runs inline (see Conv).
	outBuf, inlineBuf []float32

	// pass holds the operands of a forking pass for forwardRange (over
	// samples) and gemmRange (over the filters of one sample's GEMM),
	// bound once in newQuantConv, as Conv's are.
	pass                    quantPass
	forwardRange, gemmRange func(lo, hi int)
}

// quantPass is the operands of one forking QuantConv pass.
type quantPass struct{ x, out, cols, o []float32 }

var _ QuantWeightLayer = (*QuantConv)(nil)

func newQuantConv(c *Conv) *QuantConv {
	q := &QuantConv{
		convGeom: c.convGeom,
		biases:   append([]float32(nil), c.biases...),
		scales:   append([]float32(nil), c.scales...),
		rollMean: append([]float32(nil), c.rollMean...),
		rollVar:  append([]float32(nil), c.rollVar...),
	}
	q.qWeights, q.wScale[0] = QuantizeWeights(c.weights)
	q.forwardRange = func(lo, hi int) { q.forwardSamples(q.pass.x, q.pass.out, lo, hi, false) }
	q.gemmRange = func(lo, hi int) {
		gemmQRows(q.kcols(), q.out.H*q.out.W, q.qWeights, q.wScale[0], q.pass.cols, q.pass.o, lo, hi)
	}
	return q
}

// Kind implements Layer.
func (q *QuantConv) Kind() string { return "convolutional-int8" }

// InShape implements Layer.
func (q *QuantConv) InShape() Shape { return q.in }

// OutShape implements Layer.
func (q *QuantConv) OutShape() Shape { return q.out }

// Params implements Layer: the fp32 buffers that ride along with the
// quantized weights, in the same order as Conv's buffers 1..4. The
// weights themselves are reached through QuantWeights.
func (q *QuantConv) Params() [][]float32 {
	return [][]float32{q.biases, q.scales, q.rollMean, q.rollVar}
}

// Grads implements Layer: inference-only, no gradients.
func (q *QuantConv) Grads() [][]float32 { return nil }

// QuantWeights implements QuantWeightLayer.
func (q *QuantConv) QuantWeights() []int8 { return q.qWeights }

// WeightScale implements QuantWeightLayer.
func (q *QuantConv) WeightScale() []float32 { return q.wScale[:] }

// Forward implements Layer (inference only).
func (q *QuantConv) Forward(x []float32, batch int, train bool) ([]float32, error) {
	if train {
		return nil, ErrQuantTrain
	}
	if err := checkInput(x, batch, q.in); err != nil {
		return nil, err
	}
	out := growF32(&q.outBuf, batch*q.out.Size())
	if chunk := minChunk(q.sampleFlops()); serial(batch, chunk) {
		q.forwardSamples(x, out, 0, batch, true)
	} else {
		q.pass = quantPass{x: x, out: out}
		par.For(batch, chunk, q.forwardRange)
		q.pass = quantPass{}
	}
	return out, nil
}

// forwardSamples takes samples [lo, hi) through im2col into the
// worker's column tile, the int8 GEMM (forked over filters when fork
// is set and it is big enough), inference batch norm over the rolling
// statistics, bias and activation (see Conv.forwardSamples).
func (q *QuantConv) forwardSamples(x, out []float32, lo, hi int, fork bool) {
	filters, k, outHW := q.cfg.Filters, q.kcols(), q.out.H*q.out.W
	inSize, outSize := q.in.Size(), q.out.Size()
	bp, cols := drawScratch(fork, &q.inlineBuf, k*outHW)
	for b := lo; b < hi; b++ {
		o := out[b*outSize : (b+1)*outSize]
		q.im2col(x[b*inSize:(b+1)*inSize], cols)
		clear(o)
		if chunk := minChunk(k * outHW); !fork || serial(filters, chunk) {
			gemmQRows(k, outHW, q.qWeights, q.wScale[0], cols, o, 0, filters)
		} else {
			q.pass.cols, q.pass.o = cols, o
			par.For(filters, chunk, q.gemmRange)
			q.pass.cols, q.pass.o = nil, nil
		}
		if q.cfg.BatchNorm {
			for f := 0; f < q.cfg.Filters; f++ {
				inv := 1 / sqrt32(q.rollVar[f]+bnEps)
				scale, m := q.scales[f], q.rollMean[f]
				plane := o[f*outHW : (f+1)*outHW]
				for i, v := range plane {
					plane[i] = scale * ((v - m) * inv)
				}
			}
		}
		q.biasActivate(q.biases, o)
	}
	putScratch(bp)
}

// Backward implements Layer: quantized layers do not train.
func (q *QuantConv) Backward(delta []float32) ([]float32, error) {
	return nil, ErrQuantTrain
}

// Update implements Layer: nothing to update.
func (q *QuantConv) Update(lr, momentum, decay float32) {}

// QuantConnected is the int8 inference variant of Connected.
type QuantConnected struct {
	in, out  Shape
	qWeights []int8
	wScale   [1]float32

	biases     []float32
	activation Activation

	outBuf []float32

	// pass holds the operands of a forking Forward for rowsRange, its
	// par.For body over samples, bound once in newQuantConnected.
	pass      struct{ x, out []float32 }
	rowsRange func(lo, hi int)
}

var _ QuantWeightLayer = (*QuantConnected)(nil)

func newQuantConnected(c *Connected) *QuantConnected {
	q := &QuantConnected{
		in:         c.in,
		out:        c.out,
		biases:     append([]float32(nil), c.biases...),
		activation: c.activation,
	}
	q.qWeights, q.wScale[0] = QuantizeWeights(c.weights)
	q.rowsRange = func(lo, hi int) {
		gemmTBQRows(q.in.Size(), q.out.C, q.pass.x, q.qWeights, q.wScale[0], q.pass.out, lo, hi)
	}
	return q
}

// Kind implements Layer.
func (q *QuantConnected) Kind() string { return "connected-int8" }

// InShape implements Layer.
func (q *QuantConnected) InShape() Shape { return q.in }

// OutShape implements Layer.
func (q *QuantConnected) OutShape() Shape { return q.out }

// Params implements Layer (see QuantConv.Params).
func (q *QuantConnected) Params() [][]float32 { return [][]float32{q.biases} }

// Grads implements Layer.
func (q *QuantConnected) Grads() [][]float32 { return nil }

// QuantWeights implements QuantWeightLayer.
func (q *QuantConnected) QuantWeights() []int8 { return q.qWeights }

// WeightScale implements QuantWeightLayer.
func (q *QuantConnected) WeightScale() []float32 { return q.wScale[:] }

// Forward implements Layer (inference only).
func (q *QuantConnected) Forward(x []float32, batch int, train bool) ([]float32, error) {
	if train {
		return nil, ErrQuantTrain
	}
	if err := checkInput(x, batch, q.in); err != nil {
		return nil, err
	}
	inSize := q.in.Size()
	outs := q.out.C
	out := growF32(&q.outBuf, batch*outs)
	if chunk := minChunk(inSize * outs); serial(batch, chunk) {
		gemmTBQRows(inSize, outs, x, q.qWeights, q.wScale[0], out, 0, batch)
	} else {
		q.pass.x, q.pass.out = x, out
		par.For(batch, chunk, q.rowsRange)
		q.pass.x, q.pass.out = nil, nil
	}
	for b := 0; b < batch; b++ {
		axpy(1, q.biases, out[b*outs:(b+1)*outs])
	}
	activate(q.activation, out)
	return out, nil
}

// Backward implements Layer: quantized layers do not train.
func (q *QuantConnected) Backward(delta []float32) ([]float32, error) {
	return nil, ErrQuantTrain
}

// Update implements Layer: nothing to update.
func (q *QuantConnected) Update(lr, momentum, decay float32) {}

// QuantizeNetwork clones net into an inference-only network whose Conv
// and Connected weight matrices are int8-quantized. Parameter-less
// layers get fresh instances with the same geometry; the clone shares
// no state with net. The result is a regular *Network — Forward,
// ClassifyBatch and the serving pipeline work unchanged — but
// TrainBatch fails with ErrQuantTrain.
func QuantizeNetwork(net *Network) (*Network, error) {
	if len(net.Layers) == 0 {
		return nil, ErrEmptyNetwork
	}
	layers := make([]Layer, len(net.Layers))
	for i, l := range net.Layers {
		switch t := l.(type) {
		case *Conv:
			layers[i] = newQuantConv(t)
		case *Connected:
			layers[i] = newQuantConnected(t)
		case *MaxPool:
			p, err := NewMaxPool(t.in, t.size, t.stride)
			if err != nil {
				return nil, err
			}
			layers[i] = p
		case *Softmax:
			s, err := NewSoftmax(t.in)
			if err != nil {
				return nil, err
			}
			layers[i] = s
		default:
			return nil, fmt.Errorf("darknet: cannot quantize layer %d (%s)", i, l.Kind())
		}
	}
	qn := &Network{Config: net.Config, Layers: layers, Iteration: net.Iteration}
	return qn, nil
}

// IsQuantized reports whether net contains int8-quantized layers.
func IsQuantized(net *Network) bool {
	for _, l := range net.Layers {
		if _, ok := l.(QuantWeightLayer); ok {
			return true
		}
	}
	return false
}

// QuantScaleBytes is what a quantized weight matrix carries besides its
// int8 codes: the fp32 scale, stored as its own one-float buffer.
const QuantScaleBytes = 4
