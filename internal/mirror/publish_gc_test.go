package mirror

import (
	"errors"
	"strings"
	"testing"

	mrand "math/rand"

	"plinius/internal/darknet"
	"plinius/internal/romulus"
)

// cursors returns the heap's allocator and payload cursors: a region
// that grows either shows in one of them.
func cursors(rom *romulus.Romulus) [2]int { return [2]int{rom.Used(), rom.PayloadCursor()} }

// testNetShape builds a network with a controllable parameter count.
func testNetShape(t *testing.T, convLayers, filters int) *darknet.Network {
	t.Helper()
	cfg := darknet.MNISTConfig(convLayers, filters, 8)
	n, err := darknet.ParseConfig(strings.NewReader(cfg), mrand.New(mrand.NewSource(3)))
	if err != nil {
		t.Fatalf("ParseConfig: %v", err)
	}
	return n
}

// grown returns the heap bytes the cursors moved from a to b.
func grown(a, b [2]int) int { return b[0] - a[0] + a[1] - b[1] }

// TestSlotGCReusesRegionOnShapeChange: once each of two shapes has
// frames laid out — fp32 and, when published, int8 — alternating
// publishes of the two reuse them: no heap growth, and the reused
// frames restore the new shape.
func TestSlotGCReusesRegionOnShapeChange(t *testing.T) {
	for _, prec := range precisions {
		t.Run(prec.name, func(t *testing.T) {
			_, rom := testHeap(t, 64<<20)
			eng := testEngine(t)
			big := testNetShape(t, 2, 16)
			small := testNetShape(t, 1, 4)

			p, err := OpenStore(rom)
			if err != nil {
				t.Fatalf("OpenStore: %v", err)
			}
			publish := func(net *darknet.Network) {
				t.Helper()
				if _, err := p.PublishOut(eng, net, prec.opts...); err != nil {
					t.Fatalf("PublishOut: %v", err)
				}
			}
			// Two publishes of each shape lay out two frames of each (the
			// latest version's frame is never written, so alternation
			// needs both).
			publish(big)
			publish(big)
			publish(small)
			publish(small)
			used0 := cursors(rom)
			for i := 0; i < 6; i++ {
				publish(small)
				publish(big)
			}
			if got := cursors(rom); got != used0 {
				t.Fatalf("heap cursors moved %v -> %v across alternating republishes", used0, got)
			}
			perturb(small, 1)
			small.Iteration = 100
			publish(small)
			checkLatest(t, p, eng, small, func() *darknet.Network { return testNetShape(t, 1, 4) }, len(prec.opts) > 0)
		})
	}
}

// TestSlotGCPrefersFreshSlotOverAbandoning: while the frame table can
// still grow, a shape no free frame holds takes a new pair of frames,
// and the frames of the old shape survive for its next publish.
func TestSlotGCPrefersFreshSlotOverAbandoning(t *testing.T) {
	_, rom := testHeap(t, 64<<20)
	eng := testEngine(t)
	small := testNetShape(t, 1, 4)
	big := testNetShape(t, 2, 16)

	p, err := OpenStore(rom)
	if err != nil {
		t.Fatalf("OpenStore: %v", err)
	}
	publishNet(t, p, eng, small)
	publishNet(t, p, eng, small)
	used0 := cursors(rom)
	publishNet(t, p, eng, big)
	if got := cursors(rom); got[0] == used0[0] || got[1] == used0[1] {
		t.Fatalf("heap cursors %v -> %v: a new shape took no new tables and extent", used0, got)
	}
	used1 := cursors(rom)
	publishNet(t, p, eng, small) // a frame of the kept shape
	if got := cursors(rom); got != used1 {
		t.Fatalf("heap cursors moved %v -> %v republishing the kept shape", used1, got)
	}
}

// TestSlotGCLeaksOnlyOutgrownRegions: with the table full and every
// other frame pinned, a publish of a new shape lays the one free frame
// out afresh — exactly one layer table and one extent of heap — and is
// refused while no frame is free.
func TestSlotGCLeaksOnlyOutgrownRegions(t *testing.T) {
	_, rom := testHeap(t, 64<<20)
	eng := testEngine(t)
	small := testNetShape(t, 1, 4)
	big := testNetShape(t, 2, 16)

	p, err := OpenStore(rom)
	if err != nil {
		t.Fatalf("OpenStore: %v", err)
	}
	pins := make([]*Pin, 0, maxFrames)
	for i := 0; i < maxFrames; i++ {
		perturb(small, float32(i+1))
		publishNet(t, p, eng, small)
		pin, err := p.Pin()
		if err != nil {
			t.Fatalf("Pin: %v", err)
		}
		pins = append(pins, pin)
	}
	if _, err := p.PublishOut(eng, big); !errors.Is(err, ErrFramesPinned) {
		t.Fatalf("PublishOut with every frame pinned = %v, want ErrFramesPinned", err)
	}
	pins[0].Release()
	used0 := cursors(rom)
	publishNet(t, p, eng, big)
	if got, want := grown(used0, cursors(rom)), regionSize(collectBuffers(big)); got != want {
		t.Fatalf("relaying out the free frame took %d heap bytes, want one region of %d", got, want)
	}
	for _, pin := range pins[1:] {
		pin.Release()
	}
	checkLatest(t, p, eng, big, func() *darknet.Network { return testNetShape(t, 2, 16) }, false)
}

// TestSlotGCSurvivesReopen: the frame table is persistent, so a store
// reopened after a restart keeps writing the frames it laid out.
func TestSlotGCSurvivesReopen(t *testing.T) {
	_, rom := testHeap(t, 64<<20)
	eng := testEngine(t)
	big := testNetShape(t, 2, 16)

	p, err := OpenStore(rom)
	if err != nil {
		t.Fatalf("OpenStore: %v", err)
	}
	publishNet(t, p, eng, big)
	publishNet(t, p, eng, big)
	used0 := cursors(rom)

	p2, err := OpenStore(rom)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	perturb(big, 1)
	publishNet(t, p2, eng, big)
	if got := cursors(rom); got != used0 {
		t.Fatalf("heap cursors moved %v -> %v after reopen; frame table not persisted?", used0, got)
	}
	checkLatest(t, p2, eng, big, func() *darknet.Network { return testNetShape(t, 2, 16) }, false)
}

// TestTwinSlotsShareOneExtent: frames are laid out in pairs, so the
// second publish of a shape writes the back half of the extent the
// first one allocated and takes no new payload space; and the first
// frame is written again while its twin stays pinned, which still
// restores its own version bit for bit.
func TestTwinSlotsShareOneExtent(t *testing.T) {
	_, rom := testHeap(t, 64<<20)
	eng := testEngine(t)
	big := testNetShape(t, 2, 16)
	p, err := OpenStore(rom)
	if err != nil {
		t.Fatalf("OpenStore: %v", err)
	}
	publishNet(t, p, eng, big)
	low := rom.PayloadCursor()
	perturb(big, 1)
	publishNet(t, p, eng, big)
	if got := rom.PayloadCursor(); got != low {
		t.Fatalf("the twin's publish moved the payload cursor %d -> %d", low, got)
	}
	if f0, f1 := p.frames[0].fp32, p.frames[1].fp32; f0.pay != f1.pay || f0.half == f1.half {
		t.Fatalf("twin frames hold extents %+v and %+v in halves %d and %d, want one extent", f0.pay, f1.pay, f0.half, f1.half)
	}
	want := testNetShape(t, 2, 16)
	perturb(want, 1)
	pin, err := p.Pin()
	if err != nil {
		t.Fatalf("Pin: %v", err)
	}
	defer pin.Release()
	perturb(big, 1)
	publishNet(t, p, eng, big)
	if p.pub.frame != 0 || rom.PayloadCursor() != low {
		t.Fatalf("the next version went to frame %d, payload cursor %d; want frame 0 written in place", p.pub.frame, rom.PayloadCursor())
	}
	m, err := pin.Open(eng, darknet.FP32)
	if err != nil {
		t.Fatalf("pin.Open: %v", err)
	}
	got := testNetShape(t, 2, 16)
	if _, err := m.MirrorIn(got); err != nil || !netsEqual(want, got) {
		t.Fatalf("pinned twin after its twin's write: err %v, equal %v", err, netsEqual(want, got))
	}
	checkLatest(t, p, eng, big, func() *darknet.Network { return testNetShape(t, 2, 16) }, false)
}
