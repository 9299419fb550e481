package darknet

// Convolution as GEMM, without a batch-wide column matrix. A layer pass
// forks once over the samples of a batch, and a worker takes one
// sample at a time through every GEMM of the pass in per-sample scratch
// (drawScratch: the worker's from scratchPool, or the layer's own when
// the pass runs inline). A training Forward keeps only a reference to
// its input; Backward reads the input again.
//
// On a same-width geometry (stride 1, size = 2·pad + 1) the forward and
// weight-gradient GEMMs read a zero-padded copy of the sample's input
// planes in place of its column matrix: each kernel tap's column row is
// that copy at a fixed offset (convGeom.taps), so the GEMM kernels take
// a table of B-row offsets (rowsB) instead of one stride. The forward
// writes output rows 2·pad floats wider than the layer's and copies out
// the real ones; the weight gradient reads each tap row in W-float
// segments and skips the border floats between them. The input
// gradient, every other geometry, QuantConv and the scalar reference
// keep explicit columns: a per-sample tile built by im2col (Backward
// rebuilds it) or written by gemmTA, and added back by col2im.

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"

	"plinius/internal/par"
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

// convGeom is the shared geometry of a convolutional layer — input
// and output volumes plus kernel configuration — factored out so the
// fp32 Conv and the int8 QuantConv share the im2col/col2im machinery.
//
// A same-width geometry (sameWidth) also has taps: the offset of each
// kernel tap's column row in one sample's zero-padded input planes
// (padInput), C planes of (H+2·pad) × (W+2·pad). Tap (ch, ky, kx) at
// ch·(H+2·pad)·(W+2·pad) + ky·(W+2·pad) + kx reads, at output position
// oy·(W+2·pad) + ox, exactly the column-matrix element (oy, ox) of
// that row: the input where the window covers it, zero where it reads
// padding. So the padded planes stand in for the column matrix in the
// forward and weight-gradient GEMMs (the shifted GEMM of Anderson et
// al., below, and the implicit GEMM of cuDNN, Chetlur et al., 2014),
// with output rows W+2·pad floats apart. Layers of one geometry share
// one taps table (tapTables).
type convGeom struct {
	in, out Shape
	cfg     ConvConfig
	taps    []int
}

// Conv is a 2-D convolutional layer with optional batch normalisation.
// As in Darknet, the layer always carries five parameter buffers —
// weights, biases, scales, rolling mean, rolling variance — so the
// mirroring module's per-layer encryption metadata matches the paper's
// 140 B/layer accounting even when batch norm is disabled. Gradients
// appear on the first Backward or Update (the scale gradient only with
// batch norm), and velocity on the first Update at momentum ≠ 0;
// velocity is not mirrored.
type Conv struct {
	convGeom

	weights, biases            []float32
	scales, rollMean, rollVar  []float32
	gWeights, gBiases, gScales []float32
	vWeights, vBiases, vScales []float32
	batchMean, batchVar        []float32
	lastX, lastOut             []float32
	preBN, xhat                []float32
	lastBatch                  int

	// outBuf, dxBuf and gradParts (one dW ‖ db partial per sample) are
	// reusable forward/backward scratch (grown to the largest batch
	// seen), keeping the hot serve/train paths allocation-free.
	// Forward's return value aliases outBuf and is valid until the
	// layer's next Forward. lastX is a training Forward's input, which
	// Backward reads again. inlineBuf is the per-sample scratch of a
	// pass that runs inline; worker ranges draw theirs from scratchPool.
	// No column matrix outlives the sample a worker is on.
	outBuf, dxBuf, gradParts, inlineBuf []float32

	// pass holds the operands of a forking pass for forwardRange and
	// backwardRange, its par.For bodies. They are bound once, in
	// NewConv: a func literal handed to par.For escapes, so one made per
	// pass would be an allocation.
	pass                        convPass
	forwardRange, backwardRange func(lo, hi int)
}

// convPass is the operands of one forking Conv pass.
type convPass struct{ x, out, delta, dx, parts []float32 }

var _ Layer = (*Conv)(nil)

// NewConv builds a convolutional layer for the given input volume.
func NewConv(in Shape, cfg ConvConfig, rng *rand.Rand) (*Conv, error) {
	// A pad past maxElems could wrap in+2*pad around to a plausible
	// output size.
	if cfg.Filters <= 0 || cfg.Size <= 0 || cfg.Stride <= 0 || cfg.Pad < 0 || cfg.Pad > maxElems {
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
	}
	initScaled(rng, c.weights, k)
	for i := range c.scales {
		c.scales[i] = 1
		c.rollVar[i] = 1
	}
	if c.sameWidth() {
		c.taps = c.padTaps()
	}
	c.forwardRange = func(lo, hi int) { c.forwardSamples(c.pass.x, c.pass.out, lo, hi, false) }
	c.backwardRange = func(lo, hi int) {
		c.backwardSamples(c.pass.delta, c.pass.dx, c.pass.parts, lo, hi, false)
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
// are updated by forward passes, so their slots are nil. Every slot is
// nil before the first Backward or Update, and the scale slot stays nil
// without batch norm.
func (c *Conv) Grads() [][]float32 {
	return [][]float32{c.gWeights, c.gBiases, c.gScales, nil, nil}
}

// allocGrads gives the layer its gradient buffers on first use.
func (c *Conv) allocGrads() {
	if c.gWeights != nil {
		return
	}
	c.gWeights = make([]float32, len(c.weights))
	c.gBiases = make([]float32, len(c.biases))
	if c.cfg.BatchNorm {
		c.gScales = make([]float32, len(c.scales))
	}
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

// sameWidth reports whether im2col and col2im take the per-tap path:
// at stride 1 with out.W == in.W (size = 2·pad + 1, so out.H == in.H
// too), column row (ch, ky, kx) is the input plane shifted by a
// constant, cols[j] = plane[j + (ky−pad)·W + kx−pad], wherever the
// window reads no padding (Anderson et al., "Low-memory GEMM-based
// convolution algorithms for deep neural networks", 2017).
func (c *convGeom) sameWidth() bool { return c.cfg.Stride == 1 && c.in.W == c.out.W }

// tap returns, for kernel tap (ky, kx) of a same-width geometry, the
// shift s of its column row against the input plane and the span
// [lo, hi) of column positions whose output row reads no padding and
// whose source j + s lies inside the plane (all zero when no position
// qualifies). Every position that reads the input is inside the span;
// inside it, the positions that read padding are the wrapped columns
// ox < oxLo and ox >= oxHi.
func (c *convGeom) tap(ky, kx int) (s, lo, hi, oxLo, oxHi int) {
	w, hw := c.in.W, c.in.H*c.in.W
	oyLo, oyHi := c.validRange(ky, c.in.H, c.out.H)
	oxLo, oxHi = c.validRange(kx, w, w)
	s = (ky-c.cfg.Pad)*w + kx - c.cfg.Pad
	lo, hi = max(oyLo*w, -s), min(oyHi*w, hw-s)
	if lo >= hi {
		return 0, 0, 0, oxLo, oxHi
	}
	return s, lo, hi, oxLo, oxHi
}

// fillWrapped sets to v the wrapped columns (see tap) of span [lo, hi)
// of a same-width column row: one strided pass per wrapped column.
func (c *convGeom) fillWrapped(row []float32, lo, hi, oxLo, oxHi int, v float32) {
	w := c.out.W
	for ox := 0; ox < w; ox++ {
		if ox == oxLo {
			ox = max(ox, oxHi)
			if ox == w {
				return
			}
		}
		j := lo - lo%w + ox
		if j < lo {
			j += w
		}
		for ; j < hi; j += w {
			row[j] = v
		}
	}
}

// padW is the width of a zero-padded input plane.
func (c *convGeom) padW() int { return c.in.W + 2*c.cfg.Pad }

// padSize is the float count of one sample's zero-padded input planes.
func (c *convGeom) padSize() int { return c.in.C * (c.in.H + 2*c.cfg.Pad) * c.padW() }

// wideN is the span of one filter's output in the shifted GEMM: out.H
// rows padW floats apart, the last ending after its out.W floats. The
// 2·pad floats between rows read past the window and are dropped.
func (c *convGeom) wideN() int { return (c.out.H-1)*c.padW() + c.out.W }

// tapTables holds one taps table per same-width geometry (a tapKey),
// shared read-only by every layer of that geometry: a deep stack of
// equal layers, like the size-sweep model's, would otherwise hold a
// table per layer, 2/filters of its weights' bytes.
var tapTables sync.Map

// tapKey is what a taps table depends on.
type tapKey struct{ c, h, w, size, pad int }

// padTaps returns the taps of a same-width geometry (see convGeom).
func (c *convGeom) padTaps() []int {
	key := tapKey{c.in.C, c.in.H, c.in.W, c.cfg.Size, c.cfg.Pad}
	if taps, ok := tapTables.Load(key); ok {
		return taps.([]int)
	}
	size, pw, pp := c.cfg.Size, c.padW(), c.padSize()/c.in.C
	taps := make([]int, 0, c.kcols())
	for ch := 0; ch < c.in.C; ch++ {
		for ky := 0; ky < size; ky++ {
			for kx := 0; kx < size; kx++ {
				taps = append(taps, ch*pp+ky*pw+kx)
			}
		}
	}
	shared, _ := tapTables.LoadOrStore(key, taps)
	return shared.([]int)
}

// padInput copies one input volume into dst as zero-padded planes
// (see convGeom), writing every float of dst[:padSize()].
func (c *convGeom) padInput(x, dst []float32) {
	h, w, pad, pw := c.in.H, c.in.W, c.cfg.Pad, c.padW()
	pp := c.padSize() / c.in.C
	for ch := 0; ch < c.in.C; ch++ {
		plane := dst[ch*pp : (ch+1)*pp]
		at := pad*pw + pad // input row 0
		clear(plane[:at])
		copyRows(plane[at:], pw, x[ch*h*w:], w, h, w)
		for y := 1; y < h; y++ { // row y-1's right border, row y's left
			for i := at + y*pw - 2*pad; i < at+y*pw; i++ {
				plane[i] = 0
			}
		}
		clear(plane[at+(h-1)*pw+w:])
	}
}

// copyRows copies rows runs of w floats, srcPitch floats apart in src,
// to runs dstPitch floats apart in dst. On AVX2 it is one kernel call:
// a conv plane's rows are too short to pay for a memmove call each.
func copyRows(dst []float32, dstPitch int, src []float32, srcPitch, rows, w int) {
	if rows == 0 || w == 0 {
		return
	}
	_, _ = dst[(rows-1)*dstPitch+w-1], src[(rows-1)*srcPitch+w-1]
	if live >= tierAVX2 {
		copyRowsAVX2(&dst[0], &src[0], rows, w, dstPitch, srcPitch)
		return
	}
	for r := 0; r < rows; r++ {
		copy(dst[r*dstPitch:r*dstPitch+w], src[r*srcPitch:])
	}
}

// poisonScratch makes drawScratch fill what it hands out with NaN, so
// a test can tell a float a pass reads before writing it.
var poisonScratch atomic.Bool

// drawScratch returns n floats of scratch for a pass over samples (a
// sample's padded input planes, shifted GEMM output, column tile),
// holding whatever its last user left. A pass that runs inline (fork
// set) grows and takes its layer's own buffer, *own; a worker's range
// gets a buffer from scratchPool, which putScratch(bp) returns.
func drawScratch(inline bool, own *[]float32, n int) (bp *[]float32, buf []float32) {
	if !inline {
		bp = scratchPool.Get().(*[]float32)
		own = bp
	}
	buf = growF32(own, n)
	if poisonScratch.Load() {
		for i := range buf {
			buf[i] = float32(math.NaN())
		}
	}
	return bp, buf
}

// putScratch returns a drawScratch buffer to scratchPool.
func putScratch(bp *[]float32) {
	if bp != nil {
		scratchPool.Put(bp)
	}
}

// im2col expands one input volume into a (k x outH*outW) column
// matrix. A same-width geometry takes one shifted copy per kernel tap
// and clears what reads padding; any other does a row segment at a
// time: padding is cleared, and the in-bounds span [oxLo, oxHi) of each
// output row is one (strided) copy.
func (c *convGeom) im2col(x []float32, cols []float32) {
	size, stride, pad := c.cfg.Size, c.cfg.Stride, c.cfg.Pad
	inH, inW, outH, outW := c.in.H, c.in.W, c.out.H, c.out.W
	row := 0
	for ch := 0; ch < c.in.C; ch++ {
		plane := x[ch*inH*inW : (ch+1)*inH*inW]
		for ky := 0; ky < size; ky++ {
			oyLo, oyHi := c.validRange(ky, inH, outH)
			for kx := 0; kx < size; kx++ {
				dst := cols[row : row+outH*outW]
				row += outH * outW
				if c.sameWidth() {
					s, lo, hi, oxLo, oxHi := c.tap(ky, kx)
					copy(dst[lo:hi], plane[lo+s:hi+s])
					clear(dst[:lo])
					clear(dst[hi:])
					c.fillWrapped(dst, lo, hi, oxLo, oxHi, 0)
					continue
				}
				oxLo, oxHi := c.validRange(kx, inW, outW)
				if oxLo == oxHi { // this kernel column reads only padding
					clear(dst)
					continue
				}
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

// negZero is the additive identity of round-to-nearest: x + (−0) is x
// for every x, ±0, ±Inf and NaN included.
var negZero = math.Float32frombits(1 << 31)

// col2im scatters a column-matrix gradient back into an input-volume
// gradient (accumulating) in (channel, ky, kx, oy, ox) order: the
// per-pixel order, for every dx element. A same-width geometry first
// overwrites the wrapped columns of each tap's span in cols with −0 —
// cols is dead after col2im — and then adds the whole span in one
// contiguous row add; any other goes over im2col's row segments.
func (c *convGeom) col2im(cols []float32, dx []float32) {
	size, stride, pad := c.cfg.Size, c.cfg.Stride, c.cfg.Pad
	inH, inW, outH, outW := c.in.H, c.in.W, c.out.H, c.out.W
	row := 0
	for ch := 0; ch < c.in.C; ch++ {
		plane := dx[ch*inH*inW : (ch+1)*inH*inW]
		for ky := 0; ky < size; ky++ {
			oyLo, oyHi := c.validRange(ky, inH, outH)
			for kx := 0; kx < size; kx++ {
				if c.sameWidth() {
					s, lo, hi, oxLo, oxHi := c.tap(ky, kx)
					src := cols[row : row+outH*outW]
					c.fillWrapped(src, lo, hi, oxLo, oxHi, negZero)
					addRow(plane[lo+s:hi+s], src[lo:hi])
					row += outH * outW
					continue
				}
				oxLo, oxHi := c.validRange(kx, inW, outW)
				for oy := oyLo; oy < oyHi && oxLo < oxHi; oy++ {
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
// applies the activation, in one pass per plane. Biases come after
// batch norm, as in Darknet, where they act as the BN beta.
func (c *convGeom) biasActivate(biases, out []float32) {
	outHW := c.out.H * c.out.W
	for p := 0; p*outHW < len(out); p++ {
		addBiasActivate(c.cfg.Activation, biases[p%c.cfg.Filters], out[p*outHW:(p+1)*outHW])
	}
}

// sampleFlops is the multiply-add count of one sample's forward GEMM.
func (c *convGeom) sampleFlops() int { return c.cfg.Filters * c.kcols() * c.out.H * c.out.W }

// Forward implements Layer. The pass forks once over the samples of
// the batch: each worker takes a run of samples through the GEMM, bias
// and activation, so a sample stays in one core's cache. A batch too
// small to shard runs inline and lets its GEMMs fork over output rows
// instead. A training forward keeps x for Backward, which reads it
// again: it must stay unmodified until then. An inference forward
// keeps no reference to it.
func (c *Conv) Forward(x []float32, batch int, train bool) ([]float32, error) {
	if err := checkInput(x, batch, c.in); err != nil {
		return nil, err
	}
	out := growF32(&c.outBuf, batch*c.out.Size())
	if chunk := minChunk(c.sampleFlops()); serial(batch, chunk) {
		c.forwardSamples(x, out, 0, batch, true)
	} else {
		c.pass = convPass{x: x, out: out}
		par.For(batch, chunk, c.forwardRange)
		c.pass = convPass{}
	}
	c.lastX, c.lastBatch = nil, 0
	if train {
		c.lastX, c.lastBatch = x, batch
	}
	if c.cfg.BatchNorm {
		c.forwardBatchNorm(out, batch, train)
		c.biasActivate(c.biases, out)
	}
	c.lastOut = out
	return out, nil
}

// shifted reports whether the forward and weight-gradient GEMMs read
// the zero-padded input planes (see convGeom) instead of a column
// matrix: on a same-width geometry, unless the scalar reference —
// explicit im2col and the gemm*Scalar loops — is forced.
func (c *convGeom) shifted() bool { return c.taps != nil && !scalarKernels.Load() }

// forwardSamples takes samples [lo, hi) through the GEMM and — unless
// batch norm must see the whole batch first — bias, activation. The
// shifted GEMM writes each filter's rows padW floats apart into a
// scratch span and the out.W floats of each are copied out; any other
// path builds the sample's column tile with im2col.
func (c *Conv) forwardSamples(x, out []float32, lo, hi int, fork bool) {
	k, filters, outW, outHW := c.kcols(), c.cfg.Filters, c.out.W, c.out.H*c.out.W
	inSize, outSize := c.in.Size(), c.out.Size()
	shifted, padN, wideN, pw := c.shifted(), c.padSize(), c.wideN(), c.padW()
	n := k * outHW // the column tile
	if shifted {
		// Padded planes, wide output, and the A panel gemm packs on the
		// portable kernels.
		n = padN + filters*wideN + 2*k
	}
	bp, buf := drawScratch(fork, &c.inlineBuf, n)
	for b := lo; b < hi; b++ {
		xb, o := x[b*inSize:(b+1)*inSize], out[b*outSize:(b+1)*outSize]
		if shifted {
			planes, wide := buf[:padN], buf[padN:padN+filters*wideN]
			c.padInput(xb, planes)
			rb := rowsB{off: c.taps, pack: buf[padN+filters*wideN:]}
			shapeAB.runRows(fork, true, filters, k, wideN, c.weights, planes, rb, wide)
			for f := 0; f < filters; f++ {
				copyRows(o[f*outHW:], outW, wide[f*wideN:], pw, c.out.H, outW)
			}
		} else {
			c.im2col(xb, buf)
			shapeAB.run(fork, true, filters, k, outHW, c.weights, buf, o)
		}
		if !c.cfg.BatchNorm {
			c.biasActivate(c.biases, o)
		}
	}
	putScratch(bp)
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
// It reads the input of the training Forward before it, once: a
// second Backward, or one after an inference Forward, is refused.
func (c *Conv) Backward(delta []float32) ([]float32, error) { return c.backward(delta, true) }

// backward is Backward that, unless wantDX is set, leaves out the input
// gradient — a GEMM, a clear and a col2im per sample — and returns
// nil for it. The weight and bias gradients are the same either way.
func (c *Conv) backward(delta []float32, wantDX bool) ([]float32, error) {
	if c.lastBatch == 0 || len(delta) != c.lastBatch*c.out.Size() {
		return nil, ErrBatchMismatch
	}
	batch := c.lastBatch
	c.allocGrads()
	parts := growF32(&c.gradParts, batch*(len(c.gWeights)+len(c.gBiases)))
	var dx []float32
	flops := c.sampleFlops()
	if wantDX {
		dx = growF32(&c.dxBuf, batch*c.in.Size())
		flops *= 2
	}
	if c.cfg.BatchNorm {
		// Needs the whole batch's activation gradients first.
		for b := 0; b < batch; b++ {
			c.backwardActivation(delta, parts, b)
		}
		c.backwardBatchNorm(delta, batch)
	}
	if chunk := minChunk(flops); serial(batch, chunk) {
		c.backwardSamples(delta, dx, parts, 0, batch, true)
	} else {
		c.pass = convPass{delta: delta, dx: dx, parts: parts}
		par.For(batch, chunk, c.backwardRange)
		c.pass = convPass{}
	}
	for b := 0; b < batch; b++ {
		dW, db := c.gradPart(parts, b)
		axpy(1, dW, c.gWeights)
		axpy(1, db, c.gBiases)
	}
	c.lastX, c.lastBatch = nil, 0
	return dx, nil
}

// gradPart returns sample b's dW and db partials within parts.
func (c *Conv) gradPart(parts []float32, b int) (dW, db []float32) {
	nW, n := len(c.gWeights), len(c.gWeights)+len(c.gBiases)
	return parts[b*n : b*n+nW], parts[b*n+nW : (b+1)*n]
}

// backwardActivation rewrites sample b's delta through the activation
// derivative and sums it per filter into the sample's bias partial, in
// one pass.
func (c *Conv) backwardActivation(delta, parts []float32, b int) {
	outSize := c.out.Size()
	_, db := c.gradPart(parts, b)
	gradActivateSums(c.cfg.Activation, c.lastOut[b*outSize:(b+1)*outSize], delta[b*outSize:(b+1)*outSize], db)
}

// backwardSamples computes, for samples [lo, hi), the weight-gradient
// partial dout x colsᵀ and — when dx is not nil — the input gradient
// col2im(Wᵀ x dout). The shifted path reads the columns from the
// sample's padded input planes, each output row's W floats and then a
// skip over the 2·pad floats no window position reads; Wᵀ x dout goes
// to a column tile. Any other path rebuilds the sample's column tile
// with im2col and, once the partial is taken, builds Wᵀ x dout in its
// place.
func (c *Conv) backwardSamples(delta, dx, parts []float32, lo, hi int, fork bool) {
	k, filters, outHW := c.kcols(), c.cfg.Filters, c.out.H*c.out.W
	inSize, outSize := c.in.Size(), c.out.Size()
	shifted, padN := c.shifted(), c.padSize()
	tile := k * outHW // the column tile: im2col's, or Wᵀ x dout
	if shifted && dx == nil {
		tile = 0
	}
	n := tile
	if shifted {
		// Padded planes, and the dot panel's packed dout rows.
		n += padN + tbPanel*outHW
	}
	bp, buf := drawScratch(fork, &c.inlineBuf, n)
	cols := buf[:tile]
	for b := lo; b < hi; b++ {
		if !c.cfg.BatchNorm {
			c.backwardActivation(delta, parts, b)
		}
		xb := c.lastX[b*inSize : (b+1)*inSize]
		dout := delta[b*outSize : (b+1)*outSize]
		dW, _ := c.gradPart(parts, b)
		if shifted {
			planes := buf[tile : tile+padN]
			c.padInput(xb, planes)
			rb := rowsB{off: c.taps, seg: c.out.W, skip: 2 * c.cfg.Pad, pack: buf[tile+padN:]}
			shapeTB.runRows(fork, true, filters, outHW, k, dout, planes, rb, dW)
		} else {
			c.im2col(xb, cols)
			shapeTB.run(fork, true, filters, outHW, k, dout, cols, dW)
		}
		if dx == nil {
			continue
		}
		shapeTA.run(fork, true, k, filters, outHW, c.weights, dout, cols)
		dxb := dx[b*inSize : (b+1)*inSize]
		clear(dxb)
		c.col2im(cols, dxb)
	}
	putScratch(bp)
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
	c.allocGrads()
	sgdStep(c.weights, c.gWeights, &c.vWeights, lr, momentum, decay)
	sgdStep(c.biases, c.gBiases, &c.vBiases, lr, momentum, 0)
	if c.cfg.BatchNorm {
		sgdStep(c.scales, c.gScales, &c.vScales, lr, momentum, 0)
	}
}
