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
}

var _ Layer = (*MaxPool)(nil)

// NewMaxPool builds a max-pool layer for the given input volume.
func NewMaxPool(in Shape, size, stride int) (*MaxPool, error) {
	if size <= 0 || stride <= 0 {
		return nil, fmt.Errorf("%w: maxpool size=%d stride=%d", ErrBadConfig, size, stride)
	}
	outH := (in.H-size)/stride + 1
	outW := (in.W-size)/stride + 1
	if outH <= 0 || outW <= 0 {
		return nil, fmt.Errorf("%w: maxpool output %dx%d", ErrBadConfig, outH, outW)
	}
	return &MaxPool{
		in:     in,
		out:    Shape{C: in.C, H: outH, W: outW},
		size:   size,
		stride: stride,
	}, nil
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
		par.For(batch, chunk, func(lo, hi int) { m.forwardSamples(x, out, lo, hi) })
	}
	m.lastBatch = batch
	return out, nil
}

// forwardSamples pools samples [lo, hi), recording each window's
// argmax. The layer has no padding, so every window of a valid output
// position lies inside the input plane and its rows are plain slices.
func (m *MaxPool) forwardSamples(x, out []float32, lo, hi int) {
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
