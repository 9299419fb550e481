package mirror

import (
	"errors"
	"testing"

	"plinius/internal/darknet"
	"plinius/internal/engine"
)

// publishNet publishes net and fails the test on error.
func publishNet(t *testing.T, p *Store, eng *engine.Engine, net *darknet.Network) uint64 {
	t.Helper()
	ver, err := p.PublishOut(eng, net)
	if err != nil {
		t.Fatalf("PublishOut: %v", err)
	}
	return ver
}

func TestPublishVersionsAreMonotonic(t *testing.T) {
	_, rom := testHeap(t, 32<<20)
	eng := testEngine(t)
	net := testNet(t, 1)

	p, err := OpenStore(rom)
	if err != nil {
		t.Fatalf("OpenStore: %v", err)
	}
	if got := p.LatestVersion(); got != 0 {
		t.Fatalf("fresh publication latest = %d, want 0", got)
	}
	if _, err := p.Pin(); !errors.Is(err, ErrNoPublished) {
		t.Fatalf("Pin on empty publication = %v, want ErrNoPublished", err)
	}
	for want := uint64(1); want <= 5; want++ {
		net.Iteration = int(want) * 10
		ver := publishNet(t, p, eng, net)
		if ver != want {
			t.Fatalf("published version %d, want %d", ver, want)
		}
		if p.LatestVersion() != want {
			t.Fatalf("latest %d, want %d", p.LatestVersion(), want)
		}
	}
}

func TestPinRestoresExactVersionDespiteLaterPublishes(t *testing.T) {
	_, rom := testHeap(t, 32<<20)
	eng := testEngine(t)
	net := testNet(t, 1)

	p, err := OpenStore(rom)
	if err != nil {
		t.Fatalf("OpenStore: %v", err)
	}
	net.Iteration = 7
	v1 := publishNet(t, p, eng, net)
	want := cloneParams(net)

	pin, err := p.Pin()
	if err != nil {
		t.Fatalf("Pin(%d): %v", v1, err)
	}
	defer pin.Release()

	// Publish several later versions with perturbed parameters; the
	// pinned frame must never be written under the pin.
	for i := 0; i < maxFrames+2; i++ {
		perturb(net, float32(i+1))
		net.Iteration = 100 + i
		publishNet(t, p, eng, net)
	}

	m, err := pin.Open(eng, darknet.FP32)
	if err != nil {
		t.Fatalf("pin.Open: %v", err)
	}
	restored := testNet(t, 2)
	iter, err := m.MirrorIn(restored)
	if err != nil {
		t.Fatalf("MirrorIn pinned: %v", err)
	}
	if iter != 7 {
		t.Fatalf("pinned restore iteration %d, want 7", iter)
	}
	got := cloneParams(restored)
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("pinned snapshot mutated at param %d: %v != %v", i, got[i], want[i])
		}
	}
}

// precisions names the two publication modes the publish tests run
// as rows: fp32 only, and with the int8 variant.
var precisions = []struct {
	name string
	opts []PublishOption
}{
	{"fp32", nil},
	{"int8", []PublishOption{WithQuantized()}},
}

// TestReleaseAllowsSlotRecycling: a released pin lets its frame be
// written again, and same-shape republishes keep cycling through the
// bounded frame table without laying out any region anew — the int8
// regions included — while the latest version restores its own weights.
func TestReleaseAllowsSlotRecycling(t *testing.T) {
	for _, prec := range precisions {
		t.Run(prec.name, func(t *testing.T) {
			_, rom := testHeap(t, 32<<20)
			eng := testEngine(t)
			net := testNet(t, 1)

			p, err := OpenStore(rom)
			if err != nil {
				t.Fatalf("OpenStore: %v", err)
			}
			publishNet(t, p, eng, net)
			pin, err := p.Pin()
			if err != nil {
				t.Fatalf("Pin: %v", err)
			}
			pin.Release()
			pin.Release() // idempotent
			if _, err := pin.Open(eng, darknet.FP32); !errors.Is(err, ErrPinReleased) {
				t.Fatalf("Open after Release = %v, want ErrPinReleased", err)
			}
			// With the pin released, many further publishes must keep
			// cycling through the two frames of the first pair.
			var used [2]int
			for i := 0; i < 3*maxFrames; i++ {
				perturb(net, float32(i+1))
				net.Iteration = i + 1
				if _, err := p.PublishOut(eng, net, prec.opts...); err != nil {
					t.Fatalf("PublishOut %d: %v", i, err)
				}
				if i == 1 {
					used = cursors(rom)
				}
			}
			if got := len(p.frames); got != 2 {
				t.Fatalf("frame table grew to %d frames, want the first pair", got)
			}
			if got := cursors(rom); got != used {
				t.Fatalf("heap cursors moved %v -> %v across same-shape republishes", used, got)
			}
			checkLatest(t, p, eng, net, func() *darknet.Network { return testNet(t, 7) }, len(prec.opts) > 0)
		})
	}
}

// checkLatest restores the latest published version into a fresh()
// network and checks it holds net — and, when withInt8 is set, that its
// int8 variant holds net's quantization, while without it the variant
// is absent (ErrNoQuant).
func checkLatest(t *testing.T, p *Store, eng *engine.Engine, net *darknet.Network, fresh func() *darknet.Network, withInt8 bool) {
	t.Helper()
	pin, err := p.Pin()
	if err != nil {
		t.Fatalf("Pin latest: %v", err)
	}
	defer pin.Release()
	m, err := pin.Open(eng, darknet.FP32)
	if err != nil {
		t.Fatalf("pin.Open: %v", err)
	}
	restored := fresh()
	iter, err := m.MirrorIn(restored)
	if err != nil {
		t.Fatalf("MirrorIn: %v", err)
	}
	if iter != net.Iteration || !netsEqual(net, restored) {
		t.Fatalf("latest restores iteration %d (want %d), equal parameters %v", iter, net.Iteration, netsEqual(net, restored))
	}
	if pin.HasQuant() != withInt8 {
		t.Fatalf("HasQuant = %v, want %v", pin.HasQuant(), withInt8)
	}
	if !withInt8 {
		if _, err := pin.Open(eng, darknet.Int8); !errors.Is(err, ErrNoQuant) {
			t.Fatalf("int8 Open of an fp32-only version = %v, want ErrNoQuant", err)
		}
		return
	}
	qnet, iter := restoreInt8(t, pin, eng, fresh())
	if iter != net.Iteration || !netsEqual(quantized(t, net), qnet) {
		t.Fatalf("latest int8 variant restores iteration %d (want %d), equal buffers %v",
			iter, net.Iteration, netsEqual(quantized(t, net), qnet))
	}
}

// TestPublicationSurvivesReopen: a publication re-attached as Recover
// does restores the published version — and its int8 variant exactly
// when one was published.
func TestPublicationSurvivesReopen(t *testing.T) {
	for _, prec := range precisions {
		t.Run(prec.name, func(t *testing.T) {
			_, rom := testHeap(t, 32<<20)
			eng := testEngine(t)
			net := testNet(t, 1)

			p, err := OpenStore(rom)
			if err != nil {
				t.Fatalf("OpenStore: %v", err)
			}
			net.Iteration = 42
			ver, err := p.PublishOut(eng, net, prec.opts...)
			if err != nil {
				t.Fatalf("PublishOut: %v", err)
			}

			p2, err := OpenStore(rom)
			if err != nil {
				t.Fatalf("re-OpenStore: %v", err)
			}
			if p2.LatestVersion() != ver {
				t.Fatalf("reopened latest %d, want %d", p2.LatestVersion(), ver)
			}
			checkLatest(t, p2, eng, net, func() *darknet.Network { return testNet(t, 3) }, len(prec.opts) > 0)
		})
	}
}

func TestAllSlotsPinnedErrors(t *testing.T) {
	_, rom := testHeap(t, 32<<20)
	eng := testEngine(t)
	net := testNet(t, 1)

	p, err := OpenStore(rom)
	if err != nil {
		t.Fatalf("OpenStore: %v", err)
	}
	var pins []*Pin
	for i := 0; i < maxFrames; i++ {
		ver := publishNet(t, p, eng, net)
		pin, err := p.Pin()
		if err != nil {
			t.Fatalf("Pin %d: %v", ver, err)
		}
		pins = append(pins, pin)
	}
	if _, err := p.PublishOut(eng, net); !errors.Is(err, ErrFramesPinned) {
		t.Fatalf("PublishOut with every frame pinned = %v, want ErrFramesPinned", err)
	}
	pins[0].Release()
	if _, err := p.PublishOut(eng, net); err != nil {
		t.Fatalf("PublishOut after release: %v", err)
	}
	for _, pin := range pins[1:] {
		pin.Release()
	}
}

// cloneParams flattens every parameter buffer into one slice.
func cloneParams(net *darknet.Network) []float32 {
	var out []float32
	for _, l := range net.Layers {
		for _, p := range l.Params() {
			out = append(out, p...)
		}
	}
	return out
}

// perturb nudges every parameter so successive publishes differ.
func perturb(net *darknet.Network, delta float32) {
	for _, l := range net.Layers {
		for _, p := range l.Params() {
			for i := range p {
				p[i] += delta * 1e-3
			}
		}
	}
}
