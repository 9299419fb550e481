package darknet

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// TestTrainBatchMNISTMatchesParent pins the bits of twenty training
// steps of the repository benchmark's model (mnistTrainNet) and of one
// inference pass after them: FNV-1a-64, one 32-bit word per step, over
// every parameter buffer in layer order and then every output. The
// value was taken before the layer passes were vectorised; it holds on
// every kernel tier, at any GOMAXPROCS, under -tags purego and under
// GOAMD64=v3.
func TestTrainBatchMNISTMatchesParent(t *testing.T) {
	const want = 0x08efdd0439e307c7
	withTiers(func(tier kernelTier) {
		net, x, y := mnistTrainNet(t)
		batch := net.Config.Batch
		for i := 0; i < 20; i++ {
			if _, err := net.TrainBatch(x, y, batch); err != nil {
				t.Fatalf("%s: train: %v", tier, err)
			}
		}
		out, err := net.Forward(x, batch, false)
		if err != nil {
			t.Fatalf("%s: forward: %v", tier, err)
		}
		h := uint64(14695981039346656037)
		hash := func(v []float32) {
			for _, f := range v {
				h = (h ^ uint64(math.Float32bits(f))) * 1099511628211
			}
		}
		for _, l := range net.Layers {
			for _, p := range l.Params() {
				hash(p)
			}
		}
		hash(out)
		if h != want {
			t.Fatalf("%s: parameters and outputs hash to %#016x, want %#016x", tier, h, uint64(want))
		}
	})
}

// poolValues are what poolInput draws window elements from: few enough
// that windows tie, with both zeros, both infinities and NaN.
var poolValues = []float32{
	float32(math.NaN()), float32(math.Inf(-1)), float32(math.Inf(1)),
	0, float32(math.Copysign(0, -1)), 1, -1, 0.5,
}

// poolInput fills batch volumes of shape in, 2×2 window by window, with
// windows that are all NaN, all −Inf, a mix of the two, or drawn element
// by element from poolValues, as is whatever no window reads.
func poolInput(rng *rand.Rand, x []float32, in Shape) {
	for i := range x {
		x[i] = poolValues[rng.Intn(len(poolValues))]
	}
	for p := 0; p < len(x)/(in.H*in.W); p++ {
		for oy := 0; oy < in.H/2; oy++ {
			for ox := 0; ox < in.W/2; ox++ {
				kind := rng.Intn(4)
				if kind == 3 {
					continue
				}
				for _, i := range []int{0, 1, in.W, in.W + 1} {
					v := poolValues[min(kind, 1)]
					if kind == 2 {
						v = poolValues[rng.Intn(2)]
					}
					x[p*in.H*in.W+2*oy*in.W+2*ox+i] = v
				}
			}
		}
	}
}

// forward2x2Go is forward2x2 on the portable row kernel alone.
func (m *MaxPool) forward2x2Go(x, out []float32, lo, hi int) {
	inW, outW := m.in.W, m.out.W
	inHW, outHW := m.in.H*inW, m.out.H*outW
	for pl := lo * m.in.C; pl < hi*m.in.C; pl++ {
		for oy := 0; oy < m.out.H; oy++ {
			p := pl*inHW + 2*oy*inW
			o := pl*outHW + oy*outW
			pool2x2Row(x[p:p+2*outW], x[p+inW:p+inW+2*outW], out[o:o+outW], m.lastIdx[o:o+outW], p, inW)
		}
	}
}

// checkPool2x2 requires the 2×2 stride-2 paths — forward2x2 (AVX2 where
// the CPU has it) and the portable row kernel — to reproduce the general
// loop bit for bit: outputs, batch-global argmax indices, and the dx
// Backward routes through them.
func checkPool2x2(t testing.TB, in Shape, batch int, x, delta []float32) {
	m, err := NewMaxPool(in, 2, 2)
	if err != nil {
		t.Fatalf("maxpool %v: %v", in, err)
	}
	n := batch * m.out.Size()
	run := func(pass func(x, out []float32, lo, hi int)) (out []float32, idx []int32, dx []float32) {
		out = make([]float32, n)
		m.lastIdx = make([]int32, n)
		pass(x, out, 0, batch)
		m.outBuf, m.lastBatch = out, batch
		d, err := m.Backward(delta)
		if err != nil {
			t.Fatalf("backward: %v", err)
		}
		return out, m.lastIdx, append([]float32(nil), d...)
	}
	wantOut, wantIdx, wantDX := run(m.forwardGeneral)
	for name, pass := range map[string]func(x, out []float32, lo, hi int){
		"forward2x2": m.forward2x2, "pool2x2Row": m.forward2x2Go,
	} {
		out, idx, dx := run(pass)
		for i := range wantOut {
			if math.Float32bits(out[i]) != math.Float32bits(wantOut[i]) || idx[i] != wantIdx[i] {
				t.Fatalf("%s in %v batch %d out[%d] = %v at %d, general loop %v at %d",
					name, in, batch, i, out[i], idx[i], wantOut[i], wantIdx[i])
			}
		}
		for i := range wantDX {
			if !sameFloat(dx[i], wantDX[i]) {
				t.Fatalf("%s in %v batch %d dx[%d] = %v, general loop %v", name, in, batch, i, dx[i], wantDX[i])
			}
		}
	}
}

// TestMaxPoolFastPathMatchesGeneral covers rows shorter than, equal to
// and longer than one eight-window vector step, odd input sizes (an
// unread last row or column), and windows with ties, ±0 ties, NaN in
// every position, all NaN and all −Inf.
func TestMaxPoolFastPathMatchesGeneral(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	for _, in := range []Shape{
		{C: 1, H: 2, W: 2}, {C: 2, H: 5, W: 7}, {C: 3, H: 4, W: 16}, {C: 2, H: 6, W: 17},
		{C: 1, H: 3, W: 18}, {C: 8, H: 28, W: 28}, {C: 2, H: 9, W: 33}, {C: 1, H: 2, W: 48},
	} {
		for _, batch := range []int{1, 3} {
			for trial := 0; trial < 4; trial++ {
				x := make([]float32, batch*in.Size())
				poolInput(rng, x, in)
				delta := make([]float32, batch*in.C*(in.H/2)*(in.W/2))
				fillRandSparse(rng, delta)
				checkPool2x2(t, in, batch, x, delta)
			}
		}
	}
	// Every placement of one NaN, +0 / −0 tie and −Inf in a window.
	win := []float32{0, 0, 0, 0}
	for _, v := range poolValues {
		for _, w := range poolValues {
			for pos := 0; pos < 4; pos++ {
				for i := range win {
					win[i] = w
				}
				win[pos] = v
				x := []float32{win[0], win[1], win[2], win[3]}
				checkPool2x2(t, Shape{C: 1, H: 2, W: 2}, 1, x, []float32{1})
			}
		}
	}
}

// firstLayerNets are a conv-first and a connected-first training net.
func firstLayerNets(t *testing.T, seed int64) []*Network {
	t.Helper()
	cfg := NetConfig{Batch: 4, LearningRate: 0.1, Momentum: 0.9, Channels: 2, Height: 6, Width: 6}
	var nets []*Network
	for _, build := range []func(b *Builder) *Builder{
		func(b *Builder) *Builder {
			return b.Conv(ConvConfig{Filters: 3, Size: 3, Stride: 1, Pad: 1}).MaxPool(2, 2).Connected(5, Linear)
		},
		func(b *Builder) *Builder { return b.Connected(7, LeakyReLU).Connected(5, Linear) },
	} {
		net, err := build(NewBuilder(cfg, rand.New(rand.NewSource(seed)))).Softmax().Build()
		if err != nil {
			t.Fatalf("build: %v", err)
		}
		nets = append(nets, net)
	}
	return nets
}

// TestFirstLayerSkipsInputGradient: TrainBatch leaves out the first
// layer's input gradient, and the parameters it reaches are bit-identical
// to those of a step whose first layer computes it through Backward.
// Backward called directly on a Conv or Connected still returns dx.
func TestFirstLayerSkipsInputGradient(t *testing.T) {
	trained, manual := firstLayerNets(t, 5), firstLayerNets(t, 5)
	for n := range trained {
		net, ref := trained[n], manual[n]
		batch := net.Config.Batch
		data := rand.New(rand.NewSource(int64(6 + n)))
		x := make([]float32, batch*net.InputSize())
		fillRandSparse(data, x)
		y := make([]float32, batch*net.OutputSize())
		for b := 0; b < batch; b++ {
			y[b*net.OutputSize()+data.Intn(net.OutputSize())] = 1
		}
		for step := 0; step < 3; step++ {
			if _, err := net.TrainBatch(x, y, batch); err != nil {
				t.Fatalf("train: %v", err)
			}
			probs, err := ref.Forward(x, batch, true)
			if err != nil {
				t.Fatalf("forward: %v", err)
			}
			_, delta, err := ref.Layers[len(ref.Layers)-1].(*Softmax).CrossEntropy(probs, y, batch)
			if err != nil {
				t.Fatalf("loss: %v", err)
			}
			for i := len(ref.Layers) - 1; i >= 0; i-- {
				if delta, err = ref.Layers[i].Backward(delta); err != nil {
					t.Fatalf("layer %d backward: %v", i, err)
				}
			}
			if len(delta) != batch*ref.InputSize() {
				t.Fatalf("%s.Backward returned %d input-gradient floats, want %d",
					ref.Layers[0].Kind(), len(delta), batch*ref.InputSize())
			}
			for _, l := range ref.Layers {
				l.Update(ref.Config.LearningRate, ref.Config.Momentum, ref.Config.Decay)
			}
		}
		for i, l := range net.Layers {
			for j, p := range l.Params() {
				want := ref.Layers[i].Params()[j]
				for k := range p {
					if math.Float32bits(p[k]) != math.Float32bits(want[k]) {
						t.Fatalf("net %d layer %d param %d[%d] = %v, with dx computed %v", n, i, j, k, p[k], want[k])
					}
				}
			}
		}
	}
}

// checkConvSamples requires one sample's conv GEMMs — the forward, the
// weight gradient and the input gradient, through forwardSamples and
// backwardSamples on every kernel tier the CPU runs — to reproduce
// gemmScalar, gemmTBScalar and gemmTAScalar over im2colPerPixel's column
// matrix, with col2imPerPixel, bit for bit. On a same-width geometry
// that is the shifted GEMM over the padded input planes. The layer has
// batch norm, so the passes leave out bias and activation.
func checkConvSamples(t testing.TB, conv *Conv, x, w, dout []float32) {
	t.Helper()
	g := &conv.convGeom
	filters, k, hw := conv.cfg.Filters, conv.kcols(), conv.out.H*conv.out.W
	cols := make([]float32, k*hw)
	im2colPerPixel(g, x, cols)
	wantOut := make([]float32, filters*hw)
	gemmScalar(filters, k, hw, w, cols, wantOut)
	wantDW := make([]float32, filters*k)
	gemmTBScalar(filters, hw, k, dout, cols, wantDW)
	dcols := make([]float32, k*hw)
	gemmTAScalar(k, filters, hw, w, dout, dcols)
	wantDX := make([]float32, conv.in.Size())
	col2imPerPixel(g, dcols, wantDX)

	copy(conv.weights, w)
	conv.allocGrads()
	withTiers(func(tier kernelTier) {
		out := make([]float32, len(wantOut))
		conv.forwardSamples(x, out, 0, 1, false)
		conv.lastX = x
		parts := make([]float32, len(conv.gWeights)+len(conv.gBiases))
		dx := make([]float32, len(wantDX))
		conv.backwardSamples(append([]float32(nil), dout...), dx, parts, 0, 1, false)
		dW, _ := conv.gradPart(parts, 0)
		for name, pair := range map[string][2][]float32{
			"out": {out, wantOut}, "dW": {dW, wantDW}, "dx": {dx, wantDX},
		} {
			for i, v := range pair[0] {
				if !sameFloat(v, pair[1][i]) {
					t.Fatalf("%s in %v cfg %+v: %s[%d] = %v, scalar over im2col %v",
						tier, conv.in, conv.cfg, name, i, v, pair[1][i])
				}
			}
		}
	})
}

// TestCopyRowsMatchesCopy requires copyRows, on every kernel tier the
// CPU runs, to copy each row's w floats and write nothing else: widths
// straddle the eight-float move and pitches leave gaps on both sides.
func TestCopyRowsMatchesCopy(t *testing.T) {
	rng := rand.New(rand.NewSource(76))
	withTiers(func(tier kernelTier) {
		for _, w := range []int{1, 3, 7, 8, 9, 16, 28, 33} {
			for _, rows := range []int{1, 2, 5} {
				srcPitch, dstPitch := w+rng.Intn(3), w+rng.Intn(3)
				src := make([]float32, rows*srcPitch)
				fillKernelOperand(rng, src, true)
				got := make([]float32, rows*dstPitch+1)
				for i := range got {
					got[i] = float32(math.NaN())
				}
				want := append([]float32(nil), got...)
				for r := 0; r < rows; r++ {
					copy(want[r*dstPitch:r*dstPitch+w], src[r*srcPitch:])
				}
				copyRows(got, dstPitch, src, srcPitch, rows, w)
				for i := range want {
					if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
						t.Fatalf("%s w=%d rows=%d pitches %d/%d: dst[%d] = %v, want %v", tier, w, rows, srcPitch, dstPitch, i, got[i], want[i])
					}
				}
			}
		}
	})
}

// TestConvSamplesMatchIm2col runs checkConvSamples over every
// geometry forEachConvGeom has, on operands salted with kernelSpecials.
func TestConvSamplesMatchIm2col(t *testing.T) {
	rng := rand.New(rand.NewSource(75))
	forEachConvGeom(t, func(g *convGeom) {
		cfg := g.cfg
		cfg.BatchNorm = true
		conv, err := NewConv(g.in, cfg, nil)
		if err != nil {
			t.Fatalf("conv %v %+v: %v", g.in, cfg, err)
		}
		x := make([]float32, g.in.Size())
		w := make([]float32, len(conv.weights))
		dout := make([]float32, conv.out.Size())
		for _, v := range [][]float32{x, w, dout} {
			fillKernelOperand(rng, v, true)
		}
		checkConvSamples(t, conv, x, w, dout)
	})
}

// FuzzConvGlue fuzzes geometry (C ≤ 8, H and W ≤ 28, size ≤ 5, stride
// ≤ 3, pad ≤ 2) and operand bits through im2col, col2im, one sample's
// conv GEMMs (checkConvSamples: on a same-width geometry the shifted
// GEMM) and the 2×2 stride-2 max-pool against their per-pixel and
// scalar references, bit for bit.
func FuzzConvGlue(f *testing.F) {
	f.Add(uint8(0), uint8(27), uint8(27), uint8(2), uint8(0), uint8(1), int64(1), []byte{0, 0, 0x80, 0x7f, 0, 0, 0, 0x80})
	f.Add(uint8(3), uint8(11), uint8(3), uint8(4), uint8(0), uint8(2), int64(2), []byte{0, 0, 0xc0, 0x7f})
	f.Add(uint8(1), uint8(6), uint8(9), uint8(2), uint8(1), uint8(1), int64(3), []byte{})
	f.Add(uint8(2), uint8(0), uint8(0), uint8(0), uint8(2), uint8(0), int64(4), []byte{1, 0, 0, 0})
	f.Fuzz(func(t *testing.T, c, h, w, size, stride, pad uint8, seed int64, raw []byte) {
		in := Shape{C: 1 + int(c%8), H: 1 + int(h%28), W: 1 + int(w%28)}
		cfg := ConvConfig{Filters: 2, Size: 1 + int(size%5), Stride: 1 + int(stride%3), Pad: int(pad % 3), BatchNorm: true}
		rng := rand.New(rand.NewSource(seed))
		x := make([]float32, in.Size())
		fillKernelOperand(rng, x, true)
		conv, err := NewConv(in, cfg, nil)
		var cols, dx, wts, dout []float32
		if err == nil {
			cols = make([]float32, conv.kcols()*conv.out.H*conv.out.W)
			dx = make([]float32, in.Size())
			wts = make([]float32, len(conv.weights))
			dout = make([]float32, conv.out.Size())
			for _, v := range [][]float32{cols, dx, wts, dout} {
				fillKernelOperand(rng, v, true)
			}
		}
		// Raw bit patterns from the fuzzer, dealt round-robin over the
		// input, the columns, the starting dx, the weights and the
		// output gradient.
		for i := 0; i+4 <= len(raw); i += 4 {
			if dst := [][]float32{x, cols, dx, wts, dout}[i/4%5]; len(dst) > 0 {
				dst[i/20%len(dst)] = math.Float32frombits(binary.LittleEndian.Uint32(raw[i:]))
			}
		}
		if err == nil {
			g := &conv.convGeom
			want := make([]float32, len(cols))
			got := append([]float32(nil), cols...)
			im2colPerPixel(g, x, want)
			g.im2col(x, got)
			for i := range want {
				if !sameFloat(want[i], got[i]) {
					t.Fatalf("im2col in %v cfg %+v cols[%d] = %v, per-pixel %v", in, cfg, i, got[i], want[i])
				}
			}
			wantDX := append([]float32(nil), dx...)
			col2imPerPixel(g, cols, wantDX)
			g.col2im(cols, dx)
			for i := range wantDX {
				if !sameFloat(wantDX[i], dx[i]) {
					t.Fatalf("col2im in %v cfg %+v dx[%d] = %v, per-pixel %v", in, cfg, i, dx[i], wantDX[i])
				}
			}
			checkConvSamples(t, conv, x, wts, dout)
		}
		if in.H >= 2 && in.W >= 2 {
			delta := make([]float32, in.C*(in.H/2)*(in.W/2))
			fillKernelOperand(rng, delta, true)
			checkPool2x2(t, in, 1, x, delta)
		}
	})
}

// TestEpiloguesMatchTwoPass requires the one-pass epilogues to match
// the passes they fuse, bit for bit, on operands salted with
// kernelSpecials: addBiasActivate against an add pass then activate,
// and gradActivateSums against gradActivate then a per-plane ascending
// sum. Plane sizes straddle the eight-float vector step and plane
// counts the four-plane group.
func TestEpiloguesMatchTwoPass(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	for _, a := range []Activation{Linear, ReLU, LeakyReLU} {
		for _, n := range []int{1, 7, 8, 9, 16, 31, 784} {
			for _, planes := range []int{1, 3, 4, 5, 8, 9} {
				v := make([]float32, planes*n)
				fillKernelOperand(rng, v, true)
				bias := kernelSpecials[rng.Intn(len(kernelSpecials))]
				if rng.Intn(2) == 0 {
					bias = rng.Float32()*2 - 1
				}
				want := append([]float32(nil), v...)
				for i := range want {
					want[i] += bias
				}
				activate(a, want)
				addBiasActivate(a, bias, v)
				for i := range want {
					if !sameFloat(v[i], want[i]) {
						t.Fatalf("%v n=%d bias %v: addBiasActivate[%d] = %v, two passes %v", a, n, bias, i, v[i], want[i])
					}
				}

				out := make([]float32, planes*n)
				delta := make([]float32, planes*n)
				fillKernelOperand(rng, out, true)
				fillKernelOperand(rng, delta, true)
				wantDelta := append([]float32(nil), delta...)
				gradActivate(a, out, wantDelta)
				sums := make([]float32, planes)
				gradActivateSums(a, out, delta, sums)
				for f := 0; f < planes; f++ {
					var sum float32
					for _, d := range wantDelta[f*n : (f+1)*n] {
						sum += d
					}
					if !sameFloat(sums[f], sum) {
						t.Fatalf("%v n=%d planes=%d: sum[%d] = %v, two passes %v", a, n, planes, f, sums[f], sum)
					}
				}
				for i := range wantDelta {
					if !sameFloat(delta[i], wantDelta[i]) {
						t.Fatalf("%v n=%d planes=%d: delta[%d] = %v, two passes %v", a, n, planes, i, delta[i], wantDelta[i])
					}
				}
			}
		}
	}
}
