package mirror

import (
	"errors"
	"math"
	"testing"

	"plinius/internal/darknet"
	"plinius/internal/engine"
)

// quantized returns net's int8 clone.
func quantized(t *testing.T, net *darknet.Network) *darknet.Network {
	t.Helper()
	qnet, err := darknet.QuantizeNetwork(net)
	if err != nil {
		t.Fatalf("QuantizeNetwork: %v", err)
	}
	return qnet
}

// restoreInt8 restores the pinned version's int8 variant into the
// quantized clone of into and returns the clone with the restored
// iteration.
func restoreInt8(t *testing.T, pin *Pin, eng *engine.Engine, into *darknet.Network) (*darknet.Network, int) {
	t.Helper()
	m, err := pin.Open(eng, darknet.Int8)
	if err != nil {
		t.Fatalf("pin.Open int8: %v", err)
	}
	qnet := quantized(t, into)
	iter, err := m.MirrorIn(qnet)
	if err != nil {
		t.Fatalf("int8 MirrorIn: %v", err)
	}
	return qnet, iter
}

// TestQuantPublishRestoreRoundTrip publishes a model with the int8
// variant and restores the variant into a quantized clone: the codes
// and scales are exactly the symmetric quantization of the published
// fp32 weights, the fp32 side buffers are bit-exact, and the sealed
// payload is well under the 30%-of-fp32 budget.
func TestQuantPublishRestoreRoundTrip(t *testing.T) {
	_, rom := testHeap(t, 32<<20)
	eng := testEngine(t)
	net := testNet(t, 1)
	net.Iteration = 42

	p, err := OpenStore(rom)
	if err != nil {
		t.Fatalf("OpenStore: %v", err)
	}
	if _, err := p.PublishOut(eng, net, WithQuantized()); err != nil {
		t.Fatalf("PublishOut quantized: %v", err)
	}
	pin, err := p.Pin()
	if err != nil {
		t.Fatalf("Pin: %v", err)
	}
	defer pin.Release()
	if !pin.HasQuant() {
		t.Fatal("HasQuant = false after quantized publish")
	}
	m, err := pin.Open(eng, darknet.FP32)
	if err != nil {
		t.Fatalf("pin.Open: %v", err)
	}
	qm, err := pin.Open(eng, darknet.Int8)
	if err != nil {
		t.Fatalf("pin.Open int8: %v", err)
	}
	if ratio := float64(qm.SealedBytes()) / float64(m.SealedBytes()); ratio > 0.30 {
		t.Fatalf("int8 sealed payload is %.1f%% of fp32 (%d / %d), want <= 30%%",
			100*ratio, qm.SealedBytes(), m.SealedBytes())
	}

	// A different seed: every restored byte must come from PM.
	qnet, iter := restoreInt8(t, pin, eng, testNet(t, 99))
	if iter != 42 || qnet.Iteration != 42 {
		t.Fatalf("restored iteration %d/%d, want 42", iter, qnet.Iteration)
	}
	if !netsEqual(quantized(t, net), qnet) {
		t.Fatal("restored int8 buffers differ from the quantization of the published weights")
	}
}

// TestQuantRestoreBound: every dequantized weight restored from PM is
// within half a quantization step of the published fp32 value — the
// end-to-end form of the quantizer's round-trip bound, across seal, PM
// storage, and open.
func TestQuantRestoreBound(t *testing.T) {
	_, rom := testHeap(t, 32<<20)
	eng := testEngine(t)
	net := testNet(t, 3)

	p, err := OpenStore(rom)
	if err != nil {
		t.Fatalf("OpenStore: %v", err)
	}
	if _, err := p.PublishOut(eng, net, WithQuantized()); err != nil {
		t.Fatalf("PublishOut: %v", err)
	}
	pin, err := p.Pin()
	if err != nil {
		t.Fatalf("Pin: %v", err)
	}
	defer pin.Release()
	qnet, _ := restoreInt8(t, pin, eng, testNet(t, 4))
	for li, l := range net.Layers {
		params := l.Params()
		if len(params) == 0 {
			continue
		}
		ql := qnet.Layers[li].(darknet.QuantWeightLayer)
		scale, codes := ql.WeightScale()[0], ql.QuantWeights()
		bound := float64(scale)/2 + float64(scale)*1e-6
		for i, w := range params[0] {
			if d := math.Abs(float64(w) - float64(scale)*float64(codes[i])); d > bound {
				t.Fatalf("layer %d weight %d: |%v - %v*%d| = %v > %v", li, i, w, scale, codes[i], d, bound)
			}
		}
	}
}

// TestInt8ScaleMovedFailsAuth: every buffer of an int8 layer binds its
// place, so an adversary with PM access who copies one layer's sealed
// scale over another's — both one-float, one-segment frames — gets
// ErrAuth, not a silently rescaled layer.
func TestInt8ScaleMovedFailsAuth(t *testing.T) {
	_, rom := testHeap(t, 32<<20)
	eng := testEngine(t)
	net := testNet(t, 1)
	p, err := OpenStore(rom)
	if err != nil {
		t.Fatalf("OpenStore: %v", err)
	}
	if _, err := p.PublishOut(eng, net, WithQuantized()); err != nil {
		t.Fatalf("PublishOut: %v", err)
	}
	pin, err := p.Pin()
	if err != nil {
		t.Fatalf("Pin: %v", err)
	}
	defer pin.Release()
	qm, err := pin.Open(eng, darknet.Int8)
	if err != nil {
		t.Fatalf("pin.Open int8: %v", err)
	}
	qnet := quantized(t, net)
	moveSegment(t, qnet, segRef{qm, 0, 1, 0}, segRef{qm, 1, 1, 0})
	if _, err := qm.MirrorIn(quantized(t, testNet(t, 2))); !errors.Is(err, engine.ErrAuth) {
		t.Fatalf("MirrorIn with a moved scale = %v, want ErrAuth", err)
	}
}

// TestInt8RestoreRejectsBadScale: a restored int8 scale must be finite
// and positive — every forward pass multiplies by it — so a region
// sealed with any other scale, MAC intact, fails with ErrCorrupt, while
// the smallest positive scale still restores.
func TestInt8RestoreRejectsBadScale(t *testing.T) {
	for _, c := range []struct {
		name  string
		scale float32
		ok    bool
	}{
		{"zero", 0, false},
		{"negative", -0.5, false},
		{"nan", float32(math.NaN()), false},
		{"inf", float32(math.Inf(1)), false},
		{"denormal", math.SmallestNonzeroFloat32, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			_, rom := testHeap(t, 8<<20)
			eng := testEngine(t)
			src := quantized(t, testNet(t, 1))
			src.Layers[0].(darknet.QuantWeightLayer).WeightScale()[0] = c.scale
			m, err := AllocModel(rom, eng, src)
			if err != nil {
				t.Fatalf("AllocModel: %v", err)
			}
			if err := m.MirrorOut(src); err != nil {
				t.Fatalf("MirrorOut: %v", err)
			}
			_, err = m.MirrorIn(quantized(t, testNet(t, 2)))
			if c.ok != (err == nil) || !c.ok && !errors.Is(err, ErrCorrupt) {
				t.Fatalf("MirrorIn with scale %v = %v, want accepted %v (else ErrCorrupt)", c.scale, err, c.ok)
			}
		})
	}
}
