package darknet

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"plinius/internal/obs"
)

// Process-wide model-compute counters across all Network instances
// (training enclave, replicas, shards).
var (
	mForwardPasses  = obs.Default().Counter("darknet_forward_passes_total", "Full forward passes (training and inference).")
	mForwardSeconds = obs.Default().Counter("darknet_forward_seconds_total", "Wall seconds spent in full forward passes.")
	mTrainBatches   = obs.Default().Counter("darknet_train_batches_total", "SGD training iterations.")
	mSamples        = obs.Default().Counter("darknet_samples_total", "Samples pushed through full forward passes.")
)

// NetConfig holds the [net] section hyper-parameters. Per the threat
// model (§III), hyper-parameters are public information.
type NetConfig struct {
	Batch        int
	LearningRate float32
	Momentum     float32
	Decay        float32
	Channels     int
	Height       int
	Width        int
}

// DefaultNetConfig matches the paper's evaluation setup: batch 128,
// SGD learning rate 0.1, 28x28 grayscale inputs.
func DefaultNetConfig() NetConfig {
	return NetConfig{
		Batch:        128,
		LearningRate: 0.1,
		Channels:     1,
		Height:       28,
		Width:        28,
	}
}

// Network is a stack of layers trained with SGD.
type Network struct {
	Config NetConfig
	Layers []Layer
	// Iteration counts completed training iterations; the mirroring
	// module persists it so training resumes where it left off
	// (Algorithm 2).
	Iteration int
}

// Errors returned by Network methods.
var (
	ErrEmptyNetwork = errors.New("darknet: network has no layers")
	ErrNoSoftmax    = errors.New("darknet: training requires a softmax output layer")
)

// MaxParamBytes bounds the parameters one network may hold: four times
// the benchmark's 64 MiB model, and above every model the paper
// evaluates. The Builder refuses a layer that would pass it, or whose
// shape arithmetic would overflow, before allocating the layer.
const MaxParamBytes = 256 << 20

// maxElems is MaxParamBytes in float32s, also the bound on one
// sample's activation volume.
const maxElems = MaxParamBytes / 4

// boundedProduct returns the product of dims, and false when a dim is
// not positive or the product passes maxElems.
func boundedProduct(dims ...int) (int, bool) {
	p := 1
	for _, d := range dims {
		if d <= 0 || d > maxElems/p {
			return 0, false
		}
		p *= d
	}
	return p, true
}

// Builder assembles a network layer by layer, tracking the activation
// volume like Darknet's parser does.
type Builder struct {
	cfg    NetConfig
	rng    *rand.Rand
	cur    Shape
	params int // float32 parameters of the layers so far
	nets   []Layer
	err    error
}

// NewBuilder starts a network with the given config; rng seeds weight
// initialisation deterministically.
func NewBuilder(cfg NetConfig, rng *rand.Rand) *Builder {
	b := &Builder{
		cfg: cfg,
		rng: rng,
		cur: Shape{C: cfg.Channels, H: cfg.Height, W: cfg.Width},
	}
	if _, ok := boundedProduct(b.cur.C, b.cur.H, b.cur.W); !ok {
		b.err = fmt.Errorf("%w: input volume %v", ErrBadConfig, b.cur)
	}
	return b
}

// claim charges a layer's parameter count (the product of dims plus
// extra, which is counted only once the dims are positive) against
// MaxParamBytes before the layer allocates it.
func (b *Builder) claim(extra int, dims ...int) bool {
	n, ok := boundedProduct(dims...)
	if ok && n+extra <= maxElems-b.params {
		b.params += n + extra
		return true
	}
	b.err = fmt.Errorf("%w: layer %d parameter dims %v not positive or past MaxParamBytes (%d bytes)", ErrBadConfig, len(b.nets), dims, MaxParamBytes)
	return false
}

// add appends l, refusing an output volume past maxElems.
func (b *Builder) add(l Layer) {
	out := l.OutShape()
	if _, ok := boundedProduct(out.C, out.H, out.W); !ok {
		b.err = fmt.Errorf("%w: layer %d output volume %v", ErrBadConfig, len(b.nets), out)
		return
	}
	b.nets = append(b.nets, l)
	b.cur = out
}

// Conv appends a convolutional layer.
func (b *Builder) Conv(cfg ConvConfig) *Builder {
	if b.err != nil {
		return b
	}
	// Weights, then biases, scales and the two rolling statistics.
	if !b.claim(4*cfg.Filters, cfg.Filters, b.cur.C, cfg.Size, cfg.Size) {
		return b
	}
	l, err := NewConv(b.cur, cfg, b.rng)
	if err != nil {
		b.err = err
		return b
	}
	b.add(l)
	return b
}

// MaxPool appends a max-pooling layer.
func (b *Builder) MaxPool(size, stride int) *Builder {
	if b.err != nil {
		return b
	}
	l, err := NewMaxPool(b.cur, size, stride)
	if err != nil {
		b.err = err
		return b
	}
	b.add(l)
	return b
}

// Connected appends a fully-connected layer.
func (b *Builder) Connected(outputs int, act Activation) *Builder {
	if b.err != nil || !b.claim(outputs, outputs, b.cur.Size()) {
		return b
	}
	l, err := NewConnected(b.cur, outputs, act, b.rng)
	if err != nil {
		b.err = err
		return b
	}
	b.add(l)
	return b
}

// Softmax appends the softmax output layer.
func (b *Builder) Softmax() *Builder {
	if b.err != nil {
		return b
	}
	l, err := NewSoftmax(b.cur)
	if err != nil {
		b.err = err
		return b
	}
	b.add(l)
	return b
}

// Build finalises the network.
func (b *Builder) Build() (*Network, error) {
	if b.err != nil {
		return nil, b.err
	}
	if len(b.nets) == 0 {
		return nil, ErrEmptyNetwork
	}
	return &Network{Config: b.cfg, Layers: b.nets}, nil
}

// Forward runs the whole network and returns the output activations.
// The returned slice aliases the output layer's reusable scratch
// buffer and is valid until the network's next forward pass; copy it
// to retain activations across passes.
func (n *Network) Forward(x []float32, batch int, train bool) ([]float32, error) {
	if len(n.Layers) == 0 {
		return nil, ErrEmptyNetwork
	}
	start := time.Now()
	cur := x
	for i, l := range n.Layers {
		out, err := l.Forward(cur, batch, train)
		if err != nil {
			return nil, fmt.Errorf("layer %d (%s): %w", i, l.Kind(), err)
		}
		cur = out
	}
	mForwardPasses.Inc()
	mForwardSeconds.Add(time.Since(start).Seconds())
	mSamples.Add(float64(batch))
	return cur, nil
}

// paramGradLayer is a layer whose backward pass can leave out the
// input gradient (Conv, Connected). TrainBatch has no use for the first
// layer's, so that layer computes only its parameter gradients.
type paramGradLayer interface {
	backward(delta []float32, wantDX bool) ([]float32, error)
}

// TrainBatch runs one SGD iteration on a batch of inputs x with one-hot
// labels y and returns the batch loss. It increments Iteration.
func (n *Network) TrainBatch(x, y []float32, batch int) (float32, error) {
	probs, err := n.Forward(x, batch, true)
	if err != nil {
		return 0, err
	}
	sm, ok := n.Layers[len(n.Layers)-1].(*Softmax)
	if !ok {
		return 0, ErrNoSoftmax
	}
	loss, delta, err := sm.CrossEntropy(probs, y, batch)
	if err != nil {
		return 0, err
	}
	for i := len(n.Layers) - 1; i >= 0; i-- {
		if l, ok := n.Layers[i].(paramGradLayer); ok && i == 0 {
			delta, err = l.backward(delta, false)
		} else {
			delta, err = n.Layers[i].Backward(delta)
		}
		if err != nil {
			return 0, fmt.Errorf("layer %d (%s) backward: %w", i, n.Layers[i].Kind(), err)
		}
	}
	for _, l := range n.Layers {
		l.Update(n.Config.LearningRate, n.Config.Momentum, n.Config.Decay)
	}
	n.Iteration++
	mTrainBatches.Inc()
	return loss, nil
}

// ClassifyBatch classifies batch samples laid out contiguously in x
// with a single forward pass and returns the argmax class of each.
// Every layer processes samples independently, so the results are
// bit-identical to batch calls of Classify.
func (n *Network) ClassifyBatch(x []float32, batch int) ([]int, error) {
	probs, err := n.Forward(x, batch, false)
	if err != nil {
		return nil, err
	}
	return Classes(probs, batch, n.OutputSize()), nil
}

// Classes returns the argmax class of each of the batch rows of outs
// floats in probs.
func Classes(probs []float32, batch, outs int) []int {
	classes := make([]int, batch)
	for b := 0; b < batch; b++ {
		classes[b] = argmax(probs[b*outs : (b+1)*outs])
	}
	return classes
}

func argmax(v []float32) int {
	best := 0
	for i, p := range v {
		if p > v[best] {
			best = i
		}
	}
	return best
}

// InputSize returns the flattened input size per sample.
func (n *Network) InputSize() int {
	return n.Config.Channels * n.Config.Height * n.Config.Width
}

// OutputSize returns the flattened output size per sample.
func (n *Network) OutputSize() int {
	if len(n.Layers) == 0 {
		return 0
	}
	return n.Layers[len(n.Layers)-1].OutShape().Size()
}

// ParamBytes returns the total parameter footprint in bytes (the model
// size reported on the Fig. 7 x-axis).
func (n *Network) ParamBytes() int {
	total := 0
	for _, l := range n.Layers {
		for _, p := range l.Params() {
			total += 4 * len(p)
		}
	}
	return total
}

// NumParams returns the number of learnable parameters.
func (n *Network) NumParams() int {
	total := 0
	for _, l := range n.Layers {
		for _, p := range l.Params() {
			total += len(p)
		}
	}
	return total
}
