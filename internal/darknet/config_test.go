package darknet

import (
	"bytes"
	"errors"
	"math/rand"
	"strings"
	"testing"
)

const sampleCfg = `
# Plinius evaluation model (5 LReLU conv layers)
[net]
batch=16
learning_rate=0.1
momentum=0.9
channels=1
height=28
width=28

[convolutional]
filters=8
size=3
stride=1
pad=1
activation=leaky

[maxpool]
size=2
stride=2

[connected]
output=10
activation=linear

[softmax]
`

func TestParseConfigBuildsNetwork(t *testing.T) {
	n, err := ParseConfig(strings.NewReader(sampleCfg), rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatalf("ParseConfig: %v", err)
	}
	if len(n.Layers) != 4 {
		t.Fatalf("got %d layers, want 4", len(n.Layers))
	}
	if n.Config.Batch != 16 || n.Config.LearningRate != 0.1 || n.Config.Momentum != 0.9 {
		t.Fatalf("net config not applied: %+v", n.Config)
	}
	kinds := []string{"convolutional", "maxpool", "connected", "softmax"}
	for i, k := range kinds {
		if n.Layers[i].Kind() != k {
			t.Fatalf("layer %d kind = %s, want %s", i, n.Layers[i].Kind(), k)
		}
	}
	// 28x28 -> conv(pad 1) 28x28x8 -> pool 14x14x8 -> fc 10.
	if got := n.Layers[0].OutShape(); got != (Shape{C: 8, H: 28, W: 28}) {
		t.Fatalf("conv out = %v", got)
	}
	if got := n.Layers[1].OutShape(); got != (Shape{C: 8, H: 14, W: 14}) {
		t.Fatalf("pool out = %v", got)
	}
	if got := n.OutputSize(); got != 10 {
		t.Fatalf("output size = %d, want 10", got)
	}
}

func TestParseConfigErrors(t *testing.T) {
	tests := []struct {
		name string
		cfg  string
	}{
		{"no net section", "[convolutional]\nfilters=1\n"},
		{"kv before section", "batch=4\n[net]\n"},
		{"malformed section", "[net\nbatch=4\n"},
		{"missing equals", "[net]\nbatch 4\n"},
		{"bad int", "[net]\nbatch=abc\n"},
		{"bad float", "[net]\nlearning_rate=fast\n"},
		{"unknown layer", "[net]\nbatch=4\n[transformer]\nheads=8\n"},
		{"bad activation", "[net]\nbatch=4\n[convolutional]\nfilters=2\nactivation=gelu\n"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := ParseConfig(strings.NewReader(tt.cfg), rand.New(rand.NewSource(1))); err == nil {
				t.Fatalf("config accepted:\n%s", tt.cfg)
			}
		})
	}
}

func TestParseConfigSkipsCommentsAndBlanks(t *testing.T) {
	cfg := "# comment\n; also comment\n\n[net]\nbatch=2\nheight=4\nwidth=4\nchannels=1\n\n[softmax]\n"
	n, err := ParseConfig(strings.NewReader(cfg), rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatalf("ParseConfig: %v", err)
	}
	if len(n.Layers) != 1 {
		t.Fatalf("got %d layers, want 1", len(n.Layers))
	}
}

func TestMNISTConfigParses(t *testing.T) {
	for _, layers := range []int{1, 5, 12} {
		cfg := MNISTConfig(layers, 8, 32)
		n, err := ParseConfig(strings.NewReader(cfg), rand.New(rand.NewSource(1)))
		if err != nil {
			t.Fatalf("MNISTConfig(%d): %v", layers, err)
		}
		convs := 0
		for _, l := range n.Layers {
			if l.Kind() == "convolutional" {
				convs++
			}
		}
		if convs != layers {
			t.Fatalf("MNISTConfig(%d) produced %d conv layers", layers, convs)
		}
	}
}

// TestParseConfigNilRNGSkipsInit: a nil rng builds the same
// architecture with zero weights (and the rng-independent defaults:
// unit scales and rolling variance), for models restored from PM.
func TestParseConfigNilRNGSkipsInit(t *testing.T) {
	cfg := MNISTConfig(2, 4, 8)
	seeded, err := ParseConfig(strings.NewReader(cfg), rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatalf("ParseConfig: %v", err)
	}
	bare, err := ParseConfig(strings.NewReader(cfg), nil)
	if err != nil {
		t.Fatalf("ParseConfig(nil rng): %v", err)
	}
	if len(bare.Layers) != len(seeded.Layers) || bare.ParamBytes() != seeded.ParamBytes() {
		t.Fatalf("nil-rng network has a different shape")
	}
	for li, l := range bare.Layers {
		params := l.Params()
		if len(params) == 0 {
			continue
		}
		for i, w := range params[0] {
			if w != 0 {
				t.Fatalf("layer %d weight %d = %v, want 0", li, i, w)
			}
		}
		for bi := 1; bi < len(params); bi++ {
			want := seeded.Layers[li].Params()[bi]
			for i, v := range params[bi] {
				if v != want[i] {
					t.Fatalf("layer %d buffer %d differs from the seeded build at %d", li, bi, i)
				}
			}
		}
	}
}

func TestBatchNormFromConfig(t *testing.T) {
	cfg := "[net]\nbatch=2\nheight=6\nwidth=6\nchannels=1\n[convolutional]\nfilters=2\nsize=3\nstride=1\npad=1\nbatch_normalize=1\n[softmax]\n"
	n, err := ParseConfig(strings.NewReader(cfg), rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatalf("ParseConfig: %v", err)
	}
	conv, ok := n.Layers[0].(*Conv)
	if !ok {
		t.Fatal("first layer is not conv")
	}
	if !conv.cfg.BatchNorm {
		t.Fatal("batch_normalize=1 not applied")
	}
}

func TestSaveLoadWeightsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	n, err := ParseConfig(strings.NewReader(sampleCfg), rng)
	if err != nil {
		t.Fatalf("ParseConfig: %v", err)
	}
	n.Iteration = 137
	var buf bytes.Buffer
	if err := n.SaveWeights(&buf); err != nil {
		t.Fatalf("SaveWeights: %v", err)
	}
	// Fresh network with different initial weights.
	n2, err := ParseConfig(strings.NewReader(sampleCfg), rand.New(rand.NewSource(99)))
	if err != nil {
		t.Fatalf("ParseConfig: %v", err)
	}
	if err := n2.LoadWeights(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("LoadWeights: %v", err)
	}
	if n2.Iteration != 137 {
		t.Fatalf("Iteration = %d, want 137", n2.Iteration)
	}
	for li := range n.Layers {
		p1 := n.Layers[li].Params()
		p2 := n2.Layers[li].Params()
		for pi := range p1 {
			for i := range p1[pi] {
				if p1[pi][i] != p2[pi][i] {
					t.Fatalf("layer %d buffer %d idx %d differs", li, pi, i)
				}
			}
		}
	}
}

func TestLoadWeightsRejectsCorruptData(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	n, err := ParseConfig(strings.NewReader(sampleCfg), rng)
	if err != nil {
		t.Fatalf("ParseConfig: %v", err)
	}
	if err := n.LoadWeights(bytes.NewReader([]byte("garbage"))); !errors.Is(err, ErrBadWeights) {
		t.Fatalf("garbage LoadWeights = %v, want ErrBadWeights", err)
	}
	var buf bytes.Buffer
	if err := n.SaveWeights(&buf); err != nil {
		t.Fatalf("SaveWeights: %v", err)
	}
	truncated := buf.Bytes()[:buf.Len()/2]
	if err := n.LoadWeights(bytes.NewReader(truncated)); err == nil {
		t.Fatal("truncated weights accepted")
	}
}

func TestLoadWeightsRejectsArchitectureMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	n, err := ParseConfig(strings.NewReader(sampleCfg), rng)
	if err != nil {
		t.Fatalf("ParseConfig: %v", err)
	}
	var buf bytes.Buffer
	if err := n.SaveWeights(&buf); err != nil {
		t.Fatalf("SaveWeights: %v", err)
	}
	other, err := ParseConfig(strings.NewReader(MNISTConfig(2, 4, 8)), rng)
	if err != nil {
		t.Fatalf("ParseConfig: %v", err)
	}
	if err := other.LoadWeights(bytes.NewReader(buf.Bytes())); !errors.Is(err, ErrWeightsMismatch) {
		t.Fatalf("mismatched LoadWeights = %v, want ErrWeightsMismatch", err)
	}
}
