package mirror

import (
	"errors"
	mrand "math/rand"
	"strings"
	"testing"

	"plinius/internal/darknet"
	"plinius/internal/engine"
	"plinius/internal/romulus"
)

// segNet is a 784-520-520-520-10 MLP: the weights of its first three
// layer nodes are over 1 MiB, so each is sealed as two equal segments,
// and nodes 1 and 2 hold the same number of floats.
func segNet(t *testing.T, seed int64) *darknet.Network {
	t.Helper()
	var cfg strings.Builder
	cfg.WriteString("[net]\nbatch=1\nchannels=1\nheight=28\nwidth=28\n\n")
	for i := 0; i < 3; i++ {
		cfg.WriteString("[connected]\noutput=520\nactivation=relu\n\n")
	}
	cfg.WriteString("[connected]\noutput=10\nactivation=linear\n\n[softmax]\n")
	n, err := darknet.ParseConfig(strings.NewReader(cfg.String()), mrand.New(mrand.NewSource(seed)))
	if err != nil {
		t.Fatalf("ParseConfig: %v", err)
	}
	return n
}

// segRef names segment seg of buffer bi of layer node li in m.
type segRef struct {
	m           *Model
	li, bi, seg int
}

// bytes returns the segment's sealed bytes as laid out for net's shape,
// and its offset in its model's current payload half.
func (r segRef) bytes(t *testing.T, net *darknet.Network) ([]byte, int) {
	t.Helper()
	tasks, _ := r.m.collectTasks(collectBuffers(net), 0, r.m.gen)
	for _, tk := range tasks {
		if tk.li == r.li && tk.bi == r.bi && tk.seg == r.seg {
			return readPayload(t, r.m.rom, r.m.half, tk.off, tk.sealedLen), tk.off
		}
	}
	t.Fatalf("no segment %d of layer %d buffer %d", r.seg, r.li, r.bi)
	return nil, 0
}

// readPayload copies n sealed bytes at off of payload half half out of
// PM.
func readPayload(t *testing.T, rom *romulus.Romulus, half, off, n int) []byte {
	t.Helper()
	b := make([]byte, n)
	if err := rom.ViewPayload(half, off, n, func(src []byte) error { copy(b, src); return nil }); err != nil {
		t.Fatalf("ViewPayload: %v", err)
	}
	return b
}

// overwrite stores each sealed byte slice at its offset in m's current
// payload half, as an adversary with PM access could.
func overwrite(t *testing.T, m *Model, at map[int][]byte) {
	t.Helper()
	for off, b := range at {
		if err := m.rom.FillPayload(m.half, off, len(b), func(dst []byte) error { copy(dst, b); return nil }); err != nil {
			t.Fatalf("FillPayload: %v", err)
		}
	}
}

// moveSegment overwrites segment to with the bytes of segment from.
func moveSegment(t *testing.T, net *darknet.Network, from, to segRef) {
	t.Helper()
	b, _ := from.bytes(t, net)
	old, off := to.bytes(t, net)
	if len(b) != len(old) {
		t.Fatalf("segments of %d and %d bytes", len(b), len(old))
	}
	overwrite(t, to.m, map[int][]byte{off: b})
}

// TestSegmentTamperingFailsAuth: a segment opens only at the node,
// buffer and segment index it was sealed for. Swapping two segments of
// one buffer, moving one into another buffer of the same size, or
// reusing a training-mirror segment in a published version's frame, at
// another node index or its own, all fail with ErrAuth; the control — a
// version's segment written back to its own place — still restores.
func TestSegmentTamperingFailsAuth(t *testing.T) {
	cases := []struct {
		name    string
		tamper  func(t *testing.T, net *darknet.Network, train, slot *Model)
		slot    bool // restore the publication slot instead of the training mirror
		wantErr error
	}{
		{"swap segments of one buffer", func(t *testing.T, net *darknet.Network, train, _ *Model) {
			a, offA := segRef{train, 1, 0, 0}.bytes(t, net)
			b, offB := segRef{train, 1, 0, 1}.bytes(t, net)
			overwrite(t, train, map[int][]byte{offA: b, offB: a})
		}, false, engine.ErrAuth},
		{"segment moved to a same-size buffer", func(t *testing.T, net *darknet.Network, train, _ *Model) {
			moveSegment(t, net, segRef{train, 1, 0, 0}, segRef{train, 2, 0, 0})
		}, false, engine.ErrAuth},
		{"training segment at another node index", func(t *testing.T, net *darknet.Network, train, slot *Model) {
			moveSegment(t, net, segRef{train, 1, 0, 1}, segRef{slot, 2, 0, 1})
		}, true, engine.ErrAuth},
		// The mirror's frame and the version's hold the same parameters
		// under two generations: generations never repeat in a store.
		{"training segment at its own index", func(t *testing.T, net *darknet.Network, train, slot *Model) {
			moveSegment(t, net, segRef{train, 2, 0, 1}, segRef{slot, 2, 0, 1})
		}, true, engine.ErrAuth},
		{"version segment written back in place", func(t *testing.T, net *darknet.Network, _, slot *Model) {
			moveSegment(t, net, segRef{slot, 2, 0, 1}, segRef{slot, 2, 0, 1})
		}, true, nil},
	}
	for _, c := range cases {
		_, rom := testHeap(t, 32<<20)
		eng := testEngine(t)
		net := segNet(t, 1)
		train, err := AllocModel(rom, eng, net)
		if err != nil {
			t.Fatalf("AllocModel: %v", err)
		}
		if err := train.MirrorOut(net); err != nil {
			t.Fatalf("MirrorOut: %v", err)
		}
		if got, want := train.layers[1].bufs[0].sealedLen, segmentedLen(4*520*520, 2); got != want {
			t.Fatalf("520x520 weights recorded as %d sealed bytes, want two segments (%d)", got, want)
		}
		p, err := OpenStore(rom)
		if err != nil {
			t.Fatalf("OpenStore: %v", err)
		}
		publishNet(t, p, eng, net)
		pin, err := p.Pin()
		if err != nil {
			t.Fatalf("Pin: %v", err)
		}
		slot, err := pin.Open(eng, darknet.FP32)
		if err != nil {
			t.Fatalf("pin.Open: %v", err)
		}

		c.tamper(t, net, train, slot)
		m := train
		if c.slot {
			m = slot
		}
		restored := segNet(t, 99)
		_, err = m.MirrorIn(restored)
		if !errors.Is(err, c.wantErr) || (err == nil) != (c.wantErr == nil) {
			t.Fatalf("%s: MirrorIn = %v, want %v", c.name, err, c.wantErr)
		}
		if err == nil && !netsEqual(net, restored) {
			t.Fatalf("%s: restored parameters differ", c.name)
		}
		pin.Release()
	}
}

// TestSealedLenNamesOneLayout: the recorded length of a buffer
// strictly increases with its plaintext bytes — at either element
// width — so a forged or mismatched length never passes for another
// shape, and segmentsIn recovers the segment count from the length
// alone.
func TestSealedLenNamesOneLayout(t *testing.T) {
	for _, base := range []int{0, segmentBytes, 2 * segmentBytes, 3 * segmentBytes, 64 * segmentBytes} {
		for n := max(0, base-64); n <= base+64; n++ {
			l := sealedLenOf(n)
			if n > 0 && l <= sealedLenOf(n-1) {
				t.Fatalf("sealedLenOf(%d) = %d, not above sealedLenOf(%d) = %d", n, l, n-1, sealedLenOf(n-1))
			}
			if got, want := segmentsIn(l), segmentsFor(n); got != want {
				t.Fatalf("segmentsIn(sealedLenOf(%d) = %d) = %d, want %d", n, l, got, want)
			}
		}
	}
}

// TestOtherHalfSegmentFailsAuth: after two saves each payload half
// holds a generation of the same parameters at the same offsets. A
// segment copied from the older half over its place in the current one
// fails authentication — a one-segment fp32 buffer included, whose MAC
// binds the generation like every other segment's — and the mirror
// restores again once the segment is put back.
func TestOtherHalfSegmentFailsAuth(t *testing.T) {
	for _, c := range []struct {
		name        string
		li, bi, seg int
	}{
		{"one-segment fp32 bias", 0, 1, 0},
		{"second segment of a two-segment weight buffer", 1, 0, 1},
	} {
		t.Run(c.name, func(t *testing.T) {
			_, rom := testHeap(t, 32<<20)
			net := segNet(t, 1)
			m, err := AllocModel(rom, testEngine(t), net)
			if err != nil {
				t.Fatalf("AllocModel: %v", err)
			}
			for i := 0; i < 2; i++ {
				if err := m.MirrorOut(net); err != nil {
					t.Fatalf("MirrorOut: %v", err)
				}
			}
			cur, off := segRef{m, c.li, c.bi, c.seg}.bytes(t, net)
			old := readPayload(t, rom, 1-m.half, off, len(cur))
			overwrite(t, m, map[int][]byte{off: old})
			if _, err := m.MirrorIn(segNet(t, 99)); !errors.Is(err, engine.ErrAuth) {
				t.Fatalf("MirrorIn with a segment of the older generation = %v, want ErrAuth", err)
			}
			overwrite(t, m, map[int][]byte{off: cur})
			restored := segNet(t, 99)
			if _, err := m.MirrorIn(restored); err != nil || !netsEqual(net, restored) {
				t.Fatalf("MirrorIn with the segment put back: err %v, equal %v", err, netsEqual(net, restored))
			}
		})
	}
}
