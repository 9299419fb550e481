package darknet

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"
)

// lossOf runs a forward pass and returns the cross-entropy loss.
func lossOf(t *testing.T, n *Network, x, y []float32, batch int) float32 {
	t.Helper()
	probs, err := n.Forward(x, batch, true)
	if err != nil {
		t.Fatalf("Forward: %v", err)
	}
	sm, ok := n.Layers[len(n.Layers)-1].(*Softmax)
	if !ok {
		t.Fatal("last layer is not softmax")
	}
	loss, _, err := sm.CrossEntropy(probs, y, batch)
	if err != nil {
		t.Fatalf("CrossEntropy: %v", err)
	}
	return loss
}

// backwardOf runs forward+backward and leaves gradients accumulated.
func backwardOf(t *testing.T, n *Network, x, y []float32, batch int) {
	t.Helper()
	probs, err := n.Forward(x, batch, true)
	if err != nil {
		t.Fatalf("Forward: %v", err)
	}
	sm := n.Layers[len(n.Layers)-1].(*Softmax)
	_, delta, err := sm.CrossEntropy(probs, y, batch)
	if err != nil {
		t.Fatalf("CrossEntropy: %v", err)
	}
	for i := len(n.Layers) - 1; i >= 0; i-- {
		delta, err = n.Layers[i].Backward(delta)
		if err != nil {
			t.Fatalf("layer %d Backward: %v", i, err)
		}
	}
}

// zeroGrads clears all accumulated gradients.
func zeroGrads(n *Network) {
	for _, l := range n.Layers {
		for _, g := range l.Grads() {
			for i := range g {
				g[i] = 0
			}
		}
	}
}

// checkGradients numerically verifies every parameter gradient of the
// network on the given batch. Tolerances are loose because leaky-ReLU
// and max-pool argmax switching introduce kinks under finite
// differences; exact agreement is asserted by
// TestGradientsPureLinearConvStack.
func checkGradients(t *testing.T, n *Network, x, y []float32, batch int) {
	t.Helper()
	zeroGrads(n)
	backwardOf(t, n, x, y, batch)
	// Snapshot analytic gradients.
	analytic := make([][][]float32, len(n.Layers))
	for li, l := range n.Layers {
		gs := l.Grads()
		analytic[li] = make([][]float32, len(gs))
		for gi, g := range gs {
			analytic[li][gi] = append([]float32(nil), g...)
		}
	}
	const eps = 2e-3
	const absTol = 5e-3
	const relTol = 0.25
	for li, l := range n.Layers {
		for pi, p := range l.Params() {
			if analytic[li][pi] == nil {
				continue // rolling statistics: no gradient
			}
			// Sample a few indices per buffer to keep runtime sane.
			step := len(p)/7 + 1
			for i := 0; i < len(p); i += step {
				orig := p[i]
				p[i] = orig + eps
				lp := lossOf(t, n, x, y, batch)
				p[i] = orig - eps
				lm := lossOf(t, n, x, y, batch)
				p[i] = orig
				numeric := (lp - lm) / (2 * eps)
				got := analytic[li][pi][i]
				diff := float64(numeric - got)
				if math.Abs(diff) > absTol &&
					math.Abs(diff) > relTol*math.Max(math.Abs(float64(numeric)), math.Abs(float64(got))) {
					t.Errorf("layer %d (%s) buffer %d idx %d: analytic %.5f numeric %.5f",
						li, l.Kind(), pi, i, got, numeric)
				}
			}
		}
	}
}

func smallBatch(rng *rand.Rand, n *Network, batch int) (x, y []float32) {
	x = make([]float32, batch*n.InputSize())
	for i := range x {
		x[i] = rng.Float32()
	}
	classes := n.OutputSize()
	y = make([]float32, batch*classes)
	for b := 0; b < batch; b++ {
		y[b*classes+rng.Intn(classes)] = 1
	}
	return x, y
}

func TestGradientsConvNet(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n, err := NewBuilder(NetConfig{
		Batch: 2, LearningRate: 0.1, Channels: 1, Height: 6, Width: 6,
	}, rng).
		Conv(ConvConfig{Filters: 3, Size: 3, Stride: 1, Pad: 1, Activation: Linear}).
		MaxPool(2, 2).
		Connected(5, Linear).
		Softmax().
		Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	x, y := smallBatch(rng, n, 2)
	checkGradients(t, n, x, y, 2)
}

func TestGradientsLeakyReLU(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n, err := NewBuilder(NetConfig{
		Batch: 2, LearningRate: 0.1, Channels: 2, Height: 5, Width: 5,
	}, rng).
		Conv(ConvConfig{Filters: 2, Size: 3, Stride: 1, Pad: 0, Activation: LeakyReLU}).
		Connected(4, Linear).
		Softmax().
		Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	x, y := smallBatch(rng, n, 2)
	checkGradients(t, n, x, y, 2)
}

func TestGradientsBatchNorm(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n, err := NewBuilder(NetConfig{
		Batch: 3, LearningRate: 0.1, Channels: 1, Height: 5, Width: 5,
	}, rng).
		Conv(ConvConfig{Filters: 2, Size: 3, Stride: 1, Pad: 1, Activation: Linear, BatchNorm: true}).
		Connected(3, Linear).
		Softmax().
		Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	x, y := smallBatch(rng, n, 3)
	checkGradients(t, n, x, y, 3)
}

func TestGradientsDeepStack(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	n, err := NewBuilder(NetConfig{
		Batch: 2, LearningRate: 0.1, Channels: 1, Height: 8, Width: 8,
	}, rng).
		// Leaky/linear activations only: hard ReLU's kink at zero makes
		// finite differences unreliable at eps=1e-2. ReLU's backward is
		// covered by TestGradientsConvNet's shared gradActivate path.
		Conv(ConvConfig{Filters: 2, Size: 3, Stride: 1, Pad: 1, Activation: LeakyReLU}).
		Conv(ConvConfig{Filters: 3, Size: 3, Stride: 1, Pad: 1, Activation: Linear}).
		MaxPool(2, 2).
		Connected(6, LeakyReLU).
		Connected(3, Linear).
		Softmax().
		Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	x, y := smallBatch(rng, n, 2)
	checkGradients(t, n, x, y, 2)
}

func TestTrainingReducesLoss(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n, err := NewBuilder(NetConfig{
		Batch: 8, LearningRate: 0.1, Channels: 1, Height: 6, Width: 6,
	}, rng).
		Conv(ConvConfig{Filters: 4, Size: 3, Stride: 1, Pad: 1, Activation: LeakyReLU}).
		MaxPool(2, 2).
		Connected(3, Linear).
		Softmax().
		Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	// Learnable toy task: class = which third of the image is bright.
	const batch = 8
	x := make([]float32, batch*n.InputSize())
	y := make([]float32, batch*3)
	for b := 0; b < batch; b++ {
		cls := b % 3
		for i := 0; i < 12; i++ {
			x[b*36+cls*12+i] = 1
		}
		y[b*3+cls] = 1
	}
	first, err := n.TrainBatch(x, y, batch)
	if err != nil {
		t.Fatalf("TrainBatch: %v", err)
	}
	var last float32
	for i := 0; i < 60; i++ {
		last, err = n.TrainBatch(x, y, batch)
		if err != nil {
			t.Fatalf("TrainBatch: %v", err)
		}
	}
	if last >= first/2 {
		t.Fatalf("loss did not halve: first=%.4f last=%.4f", first, last)
	}
	if n.Iteration != 61 {
		t.Fatalf("Iteration = %d, want 61", n.Iteration)
	}
	// After fitting, classification should be perfect on the train set.
	for b := 0; b < batch; b++ {
		cls, err := n.Classify(x[b*36 : (b+1)*36])
		if err != nil {
			t.Fatalf("Classify: %v", err)
		}
		if cls != b%3 {
			t.Fatalf("sample %d classified %d, want %d", b, cls, b%3)
		}
	}
}

func TestSoftmaxProbabilitiesSumToOne(t *testing.T) {
	sm, err := NewSoftmax(Shape{C: 7, H: 1, W: 1})
	if err != nil {
		t.Fatalf("NewSoftmax: %v", err)
	}
	rng := rand.New(rand.NewSource(6))
	x := make([]float32, 14)
	for i := range x {
		x[i] = rng.Float32()*10 - 5
	}
	out, err := sm.Forward(x, 2, false)
	if err != nil {
		t.Fatalf("Forward: %v", err)
	}
	for b := 0; b < 2; b++ {
		var sum float64
		for i := 0; i < 7; i++ {
			p := out[b*7+i]
			if p < 0 || p > 1 {
				t.Fatalf("probability out of range: %f", p)
			}
			sum += float64(p)
		}
		if math.Abs(sum-1) > 1e-5 {
			t.Fatalf("probabilities sum to %f", sum)
		}
	}
}

func TestMaxPoolForwardBackward(t *testing.T) {
	mp, err := NewMaxPool(Shape{C: 1, H: 4, W: 4}, 2, 2)
	if err != nil {
		t.Fatalf("NewMaxPool: %v", err)
	}
	x := []float32{
		1, 2, 5, 6,
		3, 4, 7, 8,
		9, 10, 13, 14,
		11, 12, 15, 16,
	}
	out, err := mp.Forward(x, 1, true)
	if err != nil {
		t.Fatalf("Forward: %v", err)
	}
	want := []float32{4, 8, 12, 16}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("out[%d] = %f, want %f", i, out[i], want[i])
		}
	}
	dx, err := mp.Backward([]float32{1, 1, 1, 1})
	if err != nil {
		t.Fatalf("Backward: %v", err)
	}
	// Gradient must land exactly on the four argmax positions.
	var nonzero int
	for i, v := range dx {
		if v != 0 {
			nonzero++
			if x[i] != want[0] && x[i] != want[1] && x[i] != want[2] && x[i] != want[3] {
				t.Fatalf("gradient routed to non-max index %d", i)
			}
		}
	}
	if nonzero != 4 {
		t.Fatalf("gradient at %d positions, want 4", nonzero)
	}
}

func TestLayerInputValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	conv, err := NewConv(Shape{C: 1, H: 4, W: 4}, ConvConfig{Filters: 1, Size: 3, Stride: 1, Pad: 1}, rng)
	if err != nil {
		t.Fatalf("NewConv: %v", err)
	}
	if _, err := conv.Forward(make([]float32, 7), 1, true); err == nil {
		t.Fatal("wrong-size input accepted")
	}
	if _, err := conv.Backward(make([]float32, 16)); err == nil {
		t.Fatal("Backward without Forward accepted")
	}
	// Backward consumes the columns its Forward saved.
	if _, err := conv.Forward(make([]float32, 16), 1, true); err != nil {
		t.Fatalf("Forward: %v", err)
	}
	if _, err := conv.Backward(make([]float32, 16)); err != nil {
		t.Fatalf("Backward: %v", err)
	}
	if _, err := conv.Backward(make([]float32, 16)); err == nil {
		t.Fatal("second Backward after one Forward accepted")
	}
}

func TestLayerConstructorValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	if _, err := NewConv(Shape{C: 1, H: 4, W: 4}, ConvConfig{Filters: 0, Size: 3, Stride: 1}, rng); err == nil {
		t.Fatal("zero filters accepted")
	}
	if _, err := NewConv(Shape{C: 1, H: 2, W: 2}, ConvConfig{Filters: 1, Size: 5, Stride: 1}, rng); err == nil {
		t.Fatal("kernel larger than input accepted")
	}
	if _, err := NewMaxPool(Shape{C: 1, H: 4, W: 4}, 0, 1); err == nil {
		t.Fatal("zero pool size accepted")
	}
	if _, err := NewConnected(Shape{C: 4, H: 1, W: 1}, 0, Linear, rng); err == nil {
		t.Fatal("zero outputs accepted")
	}
}

func TestConvHasFiveParamBuffers(t *testing.T) {
	// Paper §VI: 5 parameter matrices per layer -> 140 B of encryption
	// metadata per layer.
	rng := rand.New(rand.NewSource(9))
	conv, err := NewConv(Shape{C: 1, H: 4, W: 4}, ConvConfig{Filters: 2, Size: 3, Stride: 1, Pad: 1}, rng)
	if err != nil {
		t.Fatalf("NewConv: %v", err)
	}
	if got := len(conv.Params()); got != 5 {
		t.Fatalf("conv has %d parameter buffers, want 5", got)
	}
	if got := len(conv.Grads()); got != 5 {
		t.Fatalf("conv has %d gradient slots, want 5", got)
	}
}

func TestMomentumAcceleratesDescent(t *testing.T) {
	build := func(momentum float32) (*Network, []float32, []float32) {
		rng := rand.New(rand.NewSource(10))
		n, err := NewBuilder(NetConfig{
			Batch: 4, LearningRate: 0.05, Momentum: momentum,
			Channels: 1, Height: 4, Width: 4,
		}, rng).
			Connected(4, LeakyReLU).
			Connected(2, Linear).
			Softmax().
			Build()
		if err != nil {
			t.Fatalf("Build: %v", err)
		}
		x := make([]float32, 4*16)
		y := make([]float32, 4*2)
		for b := 0; b < 4; b++ {
			cls := b % 2
			for i := 0; i < 8; i++ {
				x[b*16+cls*8+i] = 1
			}
			y[b*2+cls] = 1
		}
		return n, x, y
	}
	run := func(momentum float32) float32 {
		n, x, y := build(momentum)
		var loss float32
		for i := 0; i < 30; i++ {
			var err error
			loss, err = n.TrainBatch(x, y, 4)
			if err != nil {
				t.Fatalf("TrainBatch: %v", err)
			}
		}
		return loss
	}
	plain := run(0)
	fast := run(0.9)
	if fast >= plain {
		t.Fatalf("momentum run (%.5f) not faster than plain SGD (%.5f)", fast, plain)
	}
}

// velocitySGDStep is the SGD step every layer took when it always
// carried velocity: v = momentum*v - lr*(g + decay*w); w += v, at any
// momentum, 0 included.
func velocitySGDStep(w, g, v []float32, lr, momentum, decay float32) {
	for i := range w {
		grad := g[i] + decay*w[i]
		v[i] = momentum*v[i] - lr*grad
		w[i] += v[i]
		g[i] = 0
	}
}

// trainWithVelocity is one TrainBatch whose updates run velocitySGDStep
// on velocity held in vel (one buffer per gradient slot, made on first
// use): weights take the decay, every other buffer with a gradient
// does not, as in the layers' Update.
func trainWithVelocity(t *testing.T, n *Network, vel [][][]float32, x, y []float32, batch int) {
	t.Helper()
	backwardOf(t, n, x, y, batch)
	cfg := n.Config
	for li, l := range n.Layers {
		for bi, g := range l.Grads() {
			if g == nil {
				continue
			}
			p := l.Params()[bi]
			if vel[li][bi] == nil {
				vel[li][bi] = make([]float32, len(p))
			}
			decay := float32(0)
			if bi == 0 {
				decay = cfg.Decay
			}
			velocitySGDStep(p, g, vel[li][bi], cfg.LearningRate, cfg.Momentum, decay)
		}
	}
	n.Iteration++
}

// paramHash hashes the bits of every parameter of n.
func paramHash(n *Network) uint64 {
	h := fnv.New64a()
	var b [4]byte
	for _, l := range n.Layers {
		for _, p := range l.Params() {
			for _, v := range p {
				binary.LittleEndian.PutUint32(b[:], math.Float32bits(v))
				h.Write(b[:])
			}
		}
	}
	return h.Sum64()
}

// optimizerNet builds a small network with every trainable buffer kind:
// a batch-norm conv (scale gradients), a plain conv, and a connected
// layer, trained with weight decay.
func optimizerNet(t *testing.T, momentum float32) *Network {
	t.Helper()
	n, err := NewBuilder(NetConfig{
		Batch: 4, LearningRate: 0.05, Momentum: momentum, Decay: 0.0005,
		Channels: 1, Height: 8, Width: 8,
	}, rand.New(rand.NewSource(31))).
		Conv(ConvConfig{Filters: 3, Size: 3, Stride: 1, Pad: 1, BatchNorm: true}).
		Conv(ConvConfig{Filters: 4, Size: 3, Stride: 1, Pad: 1}).
		MaxPool(2, 2).
		Connected(5, Linear).
		Softmax().
		Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return n
}

// velocityBuffers returns a trainable layer's velocity slots.
func velocityBuffers(l Layer) [][]float32 {
	switch l := l.(type) {
	case *Conv:
		return [][]float32{l.vWeights, l.vBiases, l.vScales}
	case *Connected:
		return [][]float32{l.vWeights, l.vBiases}
	}
	return nil
}

// TestGradsNilBeforeFirstBackward: a fresh network, through train and
// inference forward passes, holds no gradient buffer; its first
// backward pass gives every trainable buffer one.
func TestGradsNilBeforeFirstBackward(t *testing.T) {
	n := optimizerNet(t, 0)
	x, y := smallBatch(rand.New(rand.NewSource(32)), n, 4)
	for _, train := range []bool{true, false} {
		if _, err := n.Forward(x, 4, train); err != nil {
			t.Fatalf("Forward: %v", err)
		}
	}
	for li, l := range n.Layers {
		for bi, g := range l.Grads() {
			if g != nil {
				t.Fatalf("layer %d (%s) gradient slot %d allocated before any backward pass", li, l.Kind(), bi)
			}
		}
	}
	backwardOf(t, n, x, y, 4)
	for li, l := range n.Layers {
		gs := l.Grads()
		for bi, p := range l.Params() {
			trainable := bi < 2 || (bi == 2 && li == 0) // weights, biases; scales with batch norm
			if got := gs[bi] != nil; got != trainable {
				t.Fatalf("layer %d (%s) gradient slot %d allocated = %v after backward, want %v", li, l.Kind(), bi, got, trainable)
			}
			if trainable && len(gs[bi]) != len(p) {
				t.Fatalf("layer %d gradient slot %d has %d elements for %d parameters", li, bi, len(gs[bi]), len(p))
			}
		}
	}
}

// TestLazyOptimizerStateMatchesVelocitySGD: training with gradients made
// on first use, and velocity only at momentum ≠ 0, is bit-identical to
// training in which every layer always carried velocity. At momentum 0
// no velocity buffer ever appears; at 0.9 each appears on the first
// update, not before.
func TestLazyOptimizerStateMatchesVelocitySGD(t *testing.T) {
	for _, momentum := range []float32{0, 0.9} {
		lazy, ref := optimizerNet(t, momentum), optimizerNet(t, momentum)
		vel := make([][][]float32, len(ref.Layers))
		for li, l := range ref.Layers {
			vel[li] = make([][]float32, len(l.Params()))
		}
		data := rand.New(rand.NewSource(33))
		for step := 0; step < 6; step++ {
			x, y := smallBatch(data, lazy, 4)
			if _, err := lazy.TrainBatch(x, y, 4); err != nil {
				t.Fatalf("TrainBatch: %v", err)
			}
			trainWithVelocity(t, ref, vel, x, y, 4)
			if got, want := paramHash(lazy), paramHash(ref); got != want {
				t.Fatalf("momentum %v step %d: parameter hash %x, velocity SGD %x", momentum, step, got, want)
			}
			for li, l := range lazy.Layers {
				for bi, v := range velocityBuffers(l) {
					hasGrad := l.Grads()[bi] != nil
					if got, want := v != nil, momentum != 0 && hasGrad; got != want {
						t.Fatalf("momentum %v step %d: layer %d velocity slot %d allocated = %v, want %v", momentum, step, li, bi, got, want)
					}
				}
			}
		}
	}
}

// TestVelocityAppearsOnFirstUpdate: at momentum ≠ 0 a backward pass
// alone leaves a layer without velocity; the update makes it.
func TestVelocityAppearsOnFirstUpdate(t *testing.T) {
	n := optimizerNet(t, 0.9)
	x, y := smallBatch(rand.New(rand.NewSource(34)), n, 4)
	backwardOf(t, n, x, y, 4)
	for li, l := range n.Layers {
		for bi, v := range velocityBuffers(l) {
			if v != nil {
				t.Fatalf("layer %d velocity slot %d allocated before any update", li, bi)
			}
		}
	}
	for _, l := range n.Layers {
		l.Update(n.Config.LearningRate, n.Config.Momentum, n.Config.Decay)
	}
	for li, l := range n.Layers {
		if v := velocityBuffers(l); v != nil && v[0] == nil {
			t.Fatalf("layer %d has no weight velocity after an update at momentum 0.9", li)
		}
	}
}

func TestParamBytesAndNumParams(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	n, err := NewBuilder(NetConfig{
		Batch: 1, LearningRate: 0.1, Channels: 1, Height: 4, Width: 4,
	}, rng).
		Connected(3, Linear).
		Softmax().
		Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	wantParams := 16*3 + 3
	if got := n.NumParams(); got != wantParams {
		t.Fatalf("NumParams = %d, want %d", got, wantParams)
	}
	if got := n.ParamBytes(); got != 4*wantParams {
		t.Fatalf("ParamBytes = %d, want %d", got, 4*wantParams)
	}
}

func TestBatchNormInferenceUsesRollingStats(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	conv, err := NewConv(Shape{C: 1, H: 3, W: 3},
		ConvConfig{Filters: 1, Size: 3, Stride: 1, Pad: 1, Activation: Linear, BatchNorm: true}, rng)
	if err != nil {
		t.Fatalf("NewConv: %v", err)
	}
	x := make([]float32, 2*9)
	for i := range x {
		x[i] = rng.Float32()
	}
	// Train-mode forwards move the rolling statistics.
	before := append([]float32(nil), conv.rollMean...)
	if _, err := conv.Forward(x, 2, true); err != nil {
		t.Fatalf("Forward: %v", err)
	}
	moved := false
	for i := range before {
		if conv.rollMean[i] != before[i] {
			moved = true
		}
	}
	if !moved {
		t.Fatal("train forward did not update rolling mean")
	}
	// Inference forwards must not.
	after := append([]float32(nil), conv.rollMean...)
	if _, err := conv.Forward(x, 2, false); err != nil {
		t.Fatalf("Forward: %v", err)
	}
	for i := range after {
		if conv.rollMean[i] != after[i] {
			t.Fatal("inference forward moved rolling mean")
		}
	}
}
