package darknet

import (
	"fmt"
	"math"

	"plinius/internal/par"
)

// MaxPool is a 2-D max-pooling layer.
type MaxPool struct {
	in, out   Shape
	size      int
	stride    int
	lastIdx   []int32
	lastBatch int

	// outBuf and dxBuf are reusable forward/backward scratch; Forward's
	// return value aliases outBuf until the layer's next Forward.
	outBuf, dxBuf []float32

	// passX and passOut are the operands of a forking Forward for
	// forwardRange, its par.For body, bound once in NewMaxPool (see
	// Conv.pass).
	passX, passOut []float32
	forwardRange   func(lo, hi int)
}

var _ Layer = (*MaxPool)(nil)

// NewMaxPool builds a max-pool layer for the given input volume.
func NewMaxPool(in Shape, size, stride int) (*MaxPool, error) {
	if size <= 0 || stride <= 0 {
		return nil, fmt.Errorf("%w: maxpool size=%d stride=%d", ErrBadConfig, size, stride)
	}
	outH := (in.H-size)/stride + 1
	outW := (in.W-size)/stride + 1
	// As in NewConv, the truncating division alone would accept a
	// window larger than the input.
	if in.H < size || in.W < size || outH <= 0 || outW <= 0 {
		return nil, fmt.Errorf("%w: maxpool output %dx%d", ErrBadConfig, outH, outW)
	}
	m := &MaxPool{
		in:     in,
		out:    Shape{C: in.C, H: outH, W: outW},
		size:   size,
		stride: stride,
	}
	m.forwardRange = func(lo, hi int) { m.forwardSamples(m.passX, m.passOut, lo, hi) }
	return m, nil
}

// Kind implements Layer.
func (m *MaxPool) Kind() string { return "maxpool" }

// InShape implements Layer.
func (m *MaxPool) InShape() Shape { return m.in }

// OutShape implements Layer.
func (m *MaxPool) OutShape() Shape { return m.out }

// Params implements Layer: pooling has no parameters.
func (m *MaxPool) Params() [][]float32 { return nil }

// Grads implements Layer.
func (m *MaxPool) Grads() [][]float32 { return nil }

// Forward implements Layer, forking once over the samples of the
// batch like Conv.Forward.
func (m *MaxPool) Forward(x []float32, batch int, train bool) ([]float32, error) {
	if err := checkInput(x, batch, m.in); err != nil {
		return nil, err
	}
	out := growF32(&m.outBuf, batch*m.out.Size())
	if cap(m.lastIdx) < len(out) {
		m.lastIdx = make([]int32, len(out))
	}
	m.lastIdx = m.lastIdx[:len(out)]
	// A compare costs what ~8 vector multiply-adds do.
	chunk := minChunk(8 * m.size * m.size * m.out.Size())
	if serial(batch, chunk) {
		m.forwardSamples(x, out, 0, batch)
	} else {
		m.passX, m.passOut = x, out
		par.For(batch, chunk, m.forwardRange)
		m.passX, m.passOut = nil, nil
	}
	m.lastBatch = batch
	return out, nil
}

// forwardSamples pools samples [lo, hi), recording each window's
// argmax: the first value in row-major window order that is strictly
// greater than every one before it and than −Inf, so NaN never wins and
// a window without a winner outputs −Inf with index −1. 2×2 windows at
// stride 2 take forward2x2; other geometries the general loop.
func (m *MaxPool) forwardSamples(x, out []float32, lo, hi int) {
	if m.size == 2 && m.stride == 2 {
		m.forward2x2(x, out, lo, hi)
		return
	}
	m.forwardGeneral(x, out, lo, hi)
}

// forwardGeneral is forwardSamples for any window size and stride. The
// layer has no padding, so every window of a valid output position lies
// inside the input plane and its rows are plain slices.
func (m *MaxPool) forwardGeneral(x, out []float32, lo, hi int) {
	inW, planes := m.in.W, m.in.C
	inHW, outHW := m.in.H*inW, m.out.H*m.out.W
	for pl := lo * planes; pl < hi*planes; pl++ {
		o := pl * outHW
		for oy := 0; oy < m.out.H; oy++ {
			rowBase := pl*inHW + oy*m.stride*inW
			for ox := 0; ox < m.out.W; ox++ {
				best := float32(math.Inf(-1))
				bestIdx := int32(-1)
				p := rowBase + ox*m.stride
				for ky := 0; ky < m.size; ky++ {
					for kx, v := range x[p : p+m.size] {
						if v > best {
							best = v
							bestIdx = int32(p + kx)
						}
					}
					p += inW
				}
				out[o] = best
				m.lastIdx[o] = bestIdx
				o++
			}
		}
	}
}

// forward2x2 is forwardSamples for 2×2 windows at stride 2, without
// branches, one output row at a time: eight windows per vector step on
// AVX2 (rows of at least eight windows), else pool2x2Row.
func (m *MaxPool) forward2x2(x, out []float32, lo, hi int) {
	inW, outW := m.in.W, m.out.W
	inHW, outHW := m.in.H*inW, m.out.H*outW
	for pl := lo * m.in.C; pl < hi*m.in.C; pl++ {
		for oy := 0; oy < m.out.H; oy++ {
			p := pl*inHW + 2*oy*inW
			o := pl*outHW + oy*outW
			top := x[p : p+2*outW]
			bot := x[p+inW : p+inW+2*outW]
			dst := out[o : o+outW]
			idx := m.lastIdx[o : o+outW]
			if live >= tierAVX2 && outW >= 8 {
				maxPool2AVX2(&top[0], &bot[0], &dst[0], &idx[0], outW, p, inW)
				continue
			}
			pool2x2Row(top, bot, dst, idx, p, inW)
		}
	}
}

// pool2x2Row pools one output row of 2×2 stride-2 windows whose top
// row starts at input index p: each of a window's four steps compares,
// then selects the value's bits and its index with conditional moves
// (maxStep).
func pool2x2Row(top, bot, dst []float32, idx []int32, p, inW int) {
	top, bot, idx = top[:2*len(dst)], bot[:2*len(dst)], idx[:len(dst)]
	for ox := range dst {
		j := 2 * ox
		i := uint32(p + j)
		bits, at := uint32(negInfBits), uint32(math.MaxUint32) // −Inf, index −1
		bits, at = maxStep(bits, at, top[j], i)
		bits, at = maxStep(bits, at, top[j+1], i+1)
		bits, at = maxStep(bits, at, bot[j], i+uint32(inW))
		bits, at = maxStep(bits, at, bot[j+1], i+uint32(inW)+1)
		dst[ox] = math.Float32frombits(bits)
		idx[ox] = int32(at)
	}
}

// negInfBits is the bit pattern of float32 −Inf.
const negInfBits = 0xff800000

// maxStep is one step of a window's running maximum, held as the bits
// of the best value so far and its index: v and i replace them when v
// is strictly greater. Selecting integers, not floats, lets the
// compiler use conditional moves.
func maxStep(bits, at uint32, v float32, i uint32) (uint32, uint32) {
	gt := v > math.Float32frombits(bits)
	return sel(gt, math.Float32bits(v), bits), sel(gt, i, at)
}

// sel returns x if cond is set, else y; it compiles to a conditional move.
func sel(cond bool, x, y uint32) uint32 {
	if cond {
		return x
	}
	return y
}

// Backward implements Layer: gradients route to each window's argmax.
func (m *MaxPool) Backward(delta []float32) ([]float32, error) {
	if m.lastBatch == 0 || len(delta) != m.lastBatch*m.out.Size() {
		return nil, ErrBatchMismatch
	}
	dx := scratchF32(&m.dxBuf, m.lastBatch*m.in.Size())
	for i, d := range delta {
		if idx := m.lastIdx[i]; idx >= 0 {
			dx[idx] += d
		}
	}
	return dx, nil
}

// Update implements Layer: nothing to update.
func (m *MaxPool) Update(lr, momentum, decay float32) {}
