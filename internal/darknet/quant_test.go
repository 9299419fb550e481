package darknet

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"plinius/internal/mnist"
)

// TestQuantizeWeightsRoundTripBound checks the symmetric-int8 scheme's
// core property: every dequantized weight is within half a quantization
// step of the original, |w - scale*q| <= scale/2, and codes stay in the
// symmetric range [-127, 127].
func TestQuantizeWeightsRoundTripBound(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{1, 7, 128, 4097} {
		w := make([]float32, n)
		for i := range w {
			w[i] = (rng.Float32()*2 - 1) * float32(math.Pow(10, float64(rng.Intn(5)-2)))
		}
		q, scale := QuantizeWeights(w)
		if len(q) != n {
			t.Fatalf("n=%d: got %d codes", n, len(q))
		}
		if scale <= 0 || math.IsInf(float64(scale), 0) || math.IsNaN(float64(scale)) {
			t.Fatalf("n=%d: bad scale %v", n, scale)
		}
		// The scale must be exactly maxAbs/127 so the largest weight
		// round-trips to code ±127, never clipped.
		var maxAbs float32
		for _, v := range w {
			if a := float32(math.Abs(float64(v))); a > maxAbs {
				maxAbs = a
			}
		}
		if want := maxAbs / 127; scale != want {
			t.Fatalf("n=%d: scale %v, want maxAbs/127 = %v", n, scale, want)
		}
		bound := scale/2 + scale*1e-6
		for i, c := range q {
			if c < -127 || c > 127 {
				t.Fatalf("n=%d: code[%d] = %d outside [-127,127]", n, i, c)
			}
			if err := math.Abs(float64(w[i]) - float64(scale)*float64(c)); err > float64(bound) {
				t.Fatalf("n=%d: w[%d]=%v dequantizes to %v (err %v > %v)",
					n, i, w[i], scale*float32(c), err, bound)
			}
		}
	}
}

// TestQuantizeWeightsAllZero: an all-zero buffer must not produce a
// zero scale (division hazard downstream); the scheme pins scale to 1.
func TestQuantizeWeightsAllZero(t *testing.T) {
	q, scale := QuantizeWeights(make([]float32, 16))
	if scale != 1 {
		t.Fatalf("all-zero scale = %v, want 1", scale)
	}
	for i, c := range q {
		if c != 0 {
			t.Fatalf("all-zero code[%d] = %d", i, c)
		}
	}
}

// buildQuantTestNet is a small multi-channel CNN (conv with batch norm,
// maxpool, conv, connected, softmax) covering every layer kind
// QuantizeNetwork must handle.
func buildQuantTestNet(t *testing.T, seed int64) *Network {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	net, err := NewBuilder(NetConfig{
		Batch: 8, LearningRate: 0.1, Momentum: 0.9,
		Channels: 1, Height: 12, Width: 12,
	}, rng).
		Conv(ConvConfig{Filters: 4, Size: 3, Stride: 1, Pad: 1, Activation: LeakyReLU, BatchNorm: true}).
		MaxPool(2, 2).
		Conv(ConvConfig{Filters: 8, Size: 3, Stride: 1, Pad: 1, Activation: LeakyReLU}).
		Connected(10, Linear).
		Softmax().
		Build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return net
}

// trainQuantTestNet runs a few batches so BN rolling statistics and
// weights move off their initial values.
func trainQuantTestNet(t *testing.T, net *Network, seed int64, iters int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	batch, in, classes := 8, net.InputSize(), 10
	x := make([]float32, batch*in)
	y := make([]float32, batch*classes)
	for i := 0; i < iters; i++ {
		for j := range x {
			x[j] = rng.Float32()
		}
		for j := range y {
			y[j] = 0
		}
		for b := 0; b < batch; b++ {
			y[b*classes+rng.Intn(classes)] = 1
		}
		if _, err := net.TrainBatch(x, y, batch); err != nil {
			t.Fatalf("train: %v", err)
		}
	}
}

// TestQuantizeNetworkForwardClose quantizes a trained net and checks
// the int8 clone's outputs stay close to fp32 (each weight is within
// scale/2 of the original, so layer outputs drift by a bounded amount),
// that the predicted classes almost always agree, and that on labelled
// digits int8 test accuracy is within one point of fp32.
func TestQuantizeNetworkForwardClose(t *testing.T) {
	net := buildQuantTestNet(t, 31)
	trainQuantTestNet(t, net, 32, 6)
	qnet, err := QuantizeNetwork(net)
	if err != nil {
		t.Fatalf("quantize: %v", err)
	}
	if !IsQuantized(qnet) {
		t.Fatal("IsQuantized(quantized clone) = false")
	}
	if IsQuantized(net) {
		t.Fatal("IsQuantized(fp32 original) = true")
	}
	if qnet.Iteration != net.Iteration {
		t.Fatalf("clone iteration %d, want %d", qnet.Iteration, net.Iteration)
	}

	rng := rand.New(rand.NewSource(33))
	batch, in := 8, net.InputSize()
	x := make([]float32, batch*in)
	agree, total := 0, 0
	for trial := 0; trial < 8; trial++ {
		for j := range x {
			x[j] = rng.Float32()
		}
		outF, err := net.Forward(x, batch, false)
		if err != nil {
			t.Fatalf("fp32 forward: %v", err)
		}
		outQ, err := qnet.Forward(x, batch, false)
		if err != nil {
			t.Fatalf("int8 forward: %v", err)
		}
		if len(outF) != len(outQ) {
			t.Fatalf("output lengths differ: %d vs %d", len(outF), len(outQ))
		}
		for i := range outF {
			if d := math.Abs(float64(outF[i]) - float64(outQ[i])); d > 0.05 {
				t.Fatalf("trial %d output[%d]: fp32 %v int8 %v (|Δ| %v)", trial, i, outF[i], outQ[i], d)
			}
		}
		cf, err := net.ClassifyBatch(x, batch)
		if err != nil {
			t.Fatalf("fp32 classify: %v", err)
		}
		cq, err := qnet.ClassifyBatch(x, batch)
		if err != nil {
			t.Fatalf("int8 classify: %v", err)
		}
		for b := range cf {
			total++
			if cf[b] == cq[b] {
				agree++
			}
		}
	}
	if agree < total*9/10 {
		t.Fatalf("class agreement %d/%d, want >= 90%%", agree, total)
	}

	// On labelled digits, the int8 clone of the repo benchmark's CNN,
	// trained well above chance, keeps its test accuracy within one point.
	digits, _, _ := mnistTrainNet(t)
	batch, in = digits.Config.Batch, digits.InputSize()
	const iters = 20
	train, test, err := mnist.Synthetic(batch*iters+256, 49).Split(batch * iters)
	if err != nil {
		t.Fatalf("split: %v", err)
	}
	y := make([]float32, batch*mnist.Classes)
	for i := 0; i < iters; i++ {
		clear(y)
		for b := 0; b < batch; b++ {
			y[b*mnist.Classes+train.Labels[i*batch+b]] = 1
		}
		if _, err := digits.TrainBatch(train.Images[i*batch*in:(i+1)*batch*in], y, batch); err != nil {
			t.Fatalf("train digits: %v", err)
		}
	}
	qdigits, err := QuantizeNetwork(digits)
	if err != nil {
		t.Fatalf("quantize digits: %v", err)
	}
	correct := func(n *Network) int {
		classes, err := n.ClassifyBatch(test.Images, test.N)
		if err != nil {
			t.Fatalf("classify digits: %v", err)
		}
		c := 0
		for i, cls := range classes {
			if cls == test.Labels[i] {
				c++
			}
		}
		return c
	}
	fp32Hits, int8Hits := correct(digits), correct(qdigits)
	if 2*fp32Hits < test.N {
		t.Fatalf("fp32 digit accuracy %d/%d; the check needs a model trained well above chance", fp32Hits, test.N)
	}
	if d := fp32Hits - int8Hits; 100*d > test.N || -100*d > test.N {
		t.Fatalf("int8 digit accuracy %d/%d vs fp32 %d/%d: delta over 1 point", int8Hits, test.N, fp32Hits, test.N)
	}
}

// TestQuantizedNetworkRejectsTraining: the int8 clone is
// inference-only; training and train-mode forwards error with
// ErrQuantTrain.
func TestQuantizedNetworkRejectsTraining(t *testing.T) {
	net := buildQuantTestNet(t, 41)
	qnet, err := QuantizeNetwork(net)
	if err != nil {
		t.Fatalf("quantize: %v", err)
	}
	batch, in := 8, net.InputSize()
	x := make([]float32, batch*in)
	y := make([]float32, batch*10)
	if _, err := qnet.TrainBatch(x, y, batch); err == nil {
		t.Fatal("TrainBatch on a quantized network succeeded")
	}
	if _, err := qnet.Forward(x, batch, true); err == nil {
		t.Fatal("train-mode Forward on a quantized network succeeded")
	}
}

// TestQuantParamBytesRatio: the quantized parameter footprint must be
// well under the fp32 one — int8 weights plus a 4-byte scale per
// weight buffer, fp32 for everything else — and identical whether
// computed on the fp32 net or its quantized clone.
func TestQuantParamBytesRatio(t *testing.T) {
	net := buildQuantTestNet(t, 51)
	qnet, err := QuantizeNetwork(net)
	if err != nil {
		t.Fatalf("quantize: %v", err)
	}
	fp32 := net.ParamBytes()
	qb := QuantParamBytes(net)
	if got := QuantParamBytes(qnet); got != qb {
		t.Fatalf("QuantParamBytes(clone) = %d, (original) = %d", got, qb)
	}
	want := 0
	for _, l := range net.Layers {
		for bi, p := range l.Params() {
			if bi == 0 {
				want += len(p) + QuantScaleBytes
			} else {
				want += 4 * len(p)
			}
		}
	}
	if qb != want {
		t.Fatalf("QuantParamBytes = %d, want %d", qb, want)
	}
	if fp32 > 0 && float64(qb)/float64(fp32) > 0.5 {
		t.Fatalf("quant/fp32 param ratio %.2f, want well under 0.5 (%d / %d)",
			float64(qb)/float64(fp32), qb, fp32)
	}
}

// TestQuantForwardSameAtAnyProcs: the int8 forward of the benchmark's
// CNN gives the same bits inline and forked — over samples, and at
// batch 1 over a conv's filters — with every scratch buffer a conv
// draws NaN-filled, so each column-tile float it reads was written.
func TestQuantForwardSameAtAnyProcs(t *testing.T) {
	net, x, _ := mnistTrainNet(t)
	qnet, err := QuantizeNetwork(net)
	if err != nil {
		t.Fatalf("quantize: %v", err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	defer setPoisonScratch(false)
	for _, batch := range []int{1, 8, 32} {
		in := x[:batch*net.InputSize()]
		forward := func() []float32 {
			out, err := qnet.Forward(in, batch, false)
			if err != nil {
				t.Fatalf("int8 forward: %v", err)
			}
			return append([]float32(nil), out...)
		}
		runtime.GOMAXPROCS(1)
		want := forward()
		setPoisonScratch(true)
		withKernelConfigs(t, func(t *testing.T) {
			for i, v := range forward() {
				if math.Float32bits(v) != math.Float32bits(want[i]) {
					t.Fatalf("batch %d GOMAXPROCS %d: out[%d] = %v, inline %v", batch, runtime.GOMAXPROCS(0), i, v, want[i])
				}
			}
		})
		setPoisonScratch(false)
	}
}

// TestQuantizedGemmMatchesDequantized: gemmQRows / gemmTBQRows must
// compute exactly scale * (integer dot) accumulated in fp32 — verified
// against an explicit dequantize-then-multiply reference within float32
// rounding, with the output rows split in two ranges as a fork over
// rows splits them.
func TestQuantizedGemmMatchesDequantized(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for _, s := range gemmShapes {
		qa := make([]int8, s.m*s.k)
		b := make([]float32, s.k*s.n)
		for i := range qa {
			qa[i] = int8(rng.Intn(255) - 127)
		}
		fillRandSparse(rng, b)
		scale := rng.Float32() + 0.01

		got := make([]float32, s.m*s.n)
		gemmQRows(s.k, s.n, qa, scale, b, got, 0, s.m/2)
		gemmQRows(s.k, s.n, qa, scale, b, got, s.m/2, s.m)
		for i := 0; i < s.m; i++ {
			for j := 0; j < s.n; j++ {
				var sum float32
				for p := 0; p < s.k; p++ {
					if qa[i*s.k+p] == 0 {
						continue
					}
					sum += float32(qa[i*s.k+p]) * b[p*s.n+j]
				}
				want := scale * sum
				if d := math.Abs(float64(got[i*s.n+j]) - float64(want)); d > 1e-4*(1+math.Abs(float64(want))) {
					t.Fatalf("gemmQRows %dx%dx%d C[%d,%d] = %v, want %v", s.m, s.k, s.n, i, j, got[i*s.n+j], want)
				}
			}
		}

		a := make([]float32, s.m*s.k)
		qb := make([]int8, s.n*s.k)
		fillRandSparse(rng, a)
		for i := range qb {
			qb[i] = int8(rng.Intn(255) - 127)
		}
		got2 := make([]float32, s.m*s.n)
		gemmTBQRows(s.k, s.n, a, qb, scale, got2, 0, s.m/2)
		gemmTBQRows(s.k, s.n, a, qb, scale, got2, s.m/2, s.m)
		for i := 0; i < s.m; i++ {
			for j := 0; j < s.n; j++ {
				var sum float32
				for p := 0; p < s.k; p++ {
					sum += a[i*s.k+p] * float32(qb[j*s.k+p])
				}
				want := scale * sum
				if d := math.Abs(float64(got2[i*s.n+j]) - float64(want)); d > 1e-4*(1+math.Abs(float64(want))) {
					t.Fatalf("gemmTBQRows %dx%dx%d C[%d,%d] = %v, want %v", s.m, s.k, s.n, i, j, got2[i*s.n+j], want)
				}
			}
		}
	}
}
