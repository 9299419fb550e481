package mirror

import (
	"errors"
	"math"
	mrand "math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"plinius/internal/darknet"
	"plinius/internal/engine"
)

// tileNetConfig is a conv layer, a max-pool to 784 floats, then
// fully connected layers of 784x1024 (four 1 MiB weight segments, on
// whole rows), 1024x768 (three, on whole rows), 768x1000 (three, whose
// boundaries fall mid-row) and 1000x10 (one).
const tileNetConfig = "[net]\nbatch=4\nchannels=1\nheight=28\nwidth=28\n\n" +
	"[convolutional]\nfilters=4\nsize=3\nstride=1\npad=1\nactivation=leaky\n\n" +
	"[maxpool]\nsize=2\nstride=2\n\n" +
	"[connected]\noutput=1024\nactivation=leaky\n\n" +
	"[connected]\noutput=768\nactivation=leaky\n\n" +
	"[connected]\noutput=1000\nactivation=leaky\n\n" +
	"[connected]\noutput=10\nactivation=linear\n\n[softmax]\n"

func tileNet(t *testing.T, seed int64) *darknet.Network {
	t.Helper()
	n, err := darknet.ParseConfig(strings.NewReader(tileNetConfig), mrand.New(mrand.NewSource(seed)))
	if err != nil {
		t.Fatalf("ParseConfig: %v", err)
	}
	return n
}

// tiledOpener seals a trained-looking tileNet as a mirror and returns
// it with an Opener of a fresh network of the same shape, a batch of
// inputs and the saved network's own output on them.
func tiledOpener(t *testing.T, batch int) (*Model, *Opener, *darknet.Network, []float32, []float32) {
	t.Helper()
	_, rom := testHeap(t, 96<<20)
	src := tileNet(t, 1)
	m, err := AllocModel(rom, testEngine(t), src)
	if err != nil {
		t.Fatalf("AllocModel: %v", err)
	}
	if err := m.MirrorOut(src); err != nil {
		t.Fatalf("MirrorOut: %v", err)
	}
	x := make([]float32, batch*src.InputSize())
	rng := mrand.New(mrand.NewSource(2))
	for i := range x {
		x[i] = rng.Float32()
	}
	want, err := src.Forward(x, batch, false)
	if err != nil {
		t.Fatalf("Forward: %v", err)
	}
	dst := tileNet(t, 2)
	o, err := m.Opener(dst, 0)
	if err != nil {
		t.Fatalf("Opener: %v", err)
	}
	return m, o, dst, x, append([]float32(nil), want...)
}

// TestOpenerForwardMatchesResident: a streamed forward pass over sealed
// segments gives the saved network's outputs bit for bit at GOMAXPROCS
// 1, 2 and 8. The three row-aligned layers are tiled and never write
// their own weights; the conv layer and the mid-row connected layer
// open into their own buffers, as a restore would.
func TestOpenerForwardMatchesResident(t *testing.T) {
	const batch = 3
	_, o, dst, x, want := tiledOpener(t, batch)
	var tiled []int
	for i, ol := range o.layers {
		if ol.tiled != nil {
			tiled = append(tiled, i)
		}
	}
	if want := []int{2, 3, 5}; !slices.Equal(tiled, want) {
		t.Fatalf("tiled layers %v, want %v", tiled, want)
	}
	weights := make(map[int][]float32)
	for _, i := range tiled {
		weights[i] = append([]float32(nil), dst.Layers[i].Params()[0]...)
	}
	var mu sync.Mutex
	for _, procs := range []int{1, 2, 8} {
		withProcs(t, procs)
		got, err := o.Forward(x, batch, &mu)
		if err != nil {
			t.Fatalf("GOMAXPROCS %d: Forward: %v", procs, err)
		}
		for i := range want {
			if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
				t.Fatalf("GOMAXPROCS %d: out[%d] = %v, resident %v", procs, i, got[i], want[i])
			}
		}
	}
	for _, i := range tiled {
		if !equalFloats(dst.Layers[i].Params()[0], weights[i]) {
			t.Fatalf("tiled layer %d wrote its own weights", i)
		}
	}
	src := tileNet(t, 1)
	for _, i := range []int{0, 4} {
		for bi, p := range dst.Layers[i].Params() {
			if !equalFloats(p, src.Layers[i].Params()[bi]) {
				t.Fatalf("layer %d buffer %d not opened into its own buffer", i, bi)
			}
		}
	}
}

// TestOpenerForwardRejectsTamperedSegment: one flipped byte in any
// weight segment, tiled or not, fails the pass with an authentication
// error and no output.
func TestOpenerForwardRejectsTamperedSegment(t *testing.T) {
	withProcs(t, 2)
	for _, c := range []struct{ layer, seg int }{{2, 0}, {2, 3}, {3, 1}, {4, 2}, {5, 0}} {
		m, o, _, x, _ := tiledOpener(t, 2)
		half, off, n := o.SegmentAt(c.layer, c.seg)
		b := readPayload(t, m.rom, half, off, n)
		b[n/2] ^= 0x10
		overwrite(t, m, map[int][]byte{off: b})
		var mu sync.Mutex
		out, err := o.Forward(x, 2, &mu)
		if !errors.Is(err, engine.ErrAuth) || out != nil {
			t.Fatalf("layer %d segment %d flipped: out %v, err %v; want ErrAuth and no output", c.layer, c.seg, out != nil, err)
		}
		if !mu.TryLock() {
			t.Fatalf("layer %d segment %d flipped: the PM lock is still held", c.layer, c.seg)
		}
	}
}

func equalFloats(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}
