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

// TestSlotGCReusesRegionOnShapeChange: republishing a same-or-smaller
// shape into a recycled slot must rewrite its regions — fp32 and, when
// published, int8 — in place: no heap growth, bytes counted in
// ReusedBytes, nothing leaked, and the rewritten regions restore the
// new shape.
func TestSlotGCReusesRegionOnShapeChange(t *testing.T) {
	for _, prec := range precisions {
		t.Run(prec.name, func(t *testing.T) {
			_, rom := testHeap(t, 64<<20)
			eng := testEngine(t)
			big := testNetShape(t, 2, 16)
			small := testNetShape(t, 1, 4)
			if regionSize(collectBuffers(small)) >= regionSize(collectBuffers(big)) {
				t.Fatal("test shapes inverted: small must need less region than big")
			}

			p, err := OpenPublication(rom)
			if err != nil {
				t.Fatalf("OpenPublication: %v", err)
			}
			publish := func(net *darknet.Network) {
				t.Helper()
				if _, err := p.PublishOut(eng, net, prec.opts...); err != nil {
					t.Fatalf("PublishOut: %v", err)
				}
			}
			// Two big publishes materialize two big-shaped slots (the
			// latest slot is never recycled, so alternation needs both).
			publish(big)
			publish(big)
			used0 := cursors(rom)

			// Repeated same-or-smaller republish: every shape change
			// lands in a recycled big region and must fit in place.
			for i := 0; i < 6; i++ {
				publish(small)
				publish(big)
			}
			if got := cursors(rom); got != used0 {
				t.Fatalf("heap cursors moved %v -> %v across same-or-smaller republishes", used0, got)
			}
			if p.ReusedBytes() == 0 {
				t.Fatal("ReusedBytes = 0; shape changes should have reused regions")
			}
			if p.LeakedBytes() != 0 {
				t.Fatalf("LeakedBytes = %d, want 0 (every new shape fit)", p.LeakedBytes())
			}

			// The recycled regions must still restore correctly.
			perturb(small, 1)
			small.Iteration = 100
			publish(small)
			checkLatest(t, p, eng, small, func() *darknet.Network { return testNetShape(t, 1, 4) }, len(prec.opts) > 0)
		})
	}
}

// TestSlotGCPrefersFreshSlotOverAbandoning: while the table can still
// grow, an outgrown recycled region is left intact (available for
// future same-shape publishes) rather than abandoned — no leak.
func TestSlotGCPrefersFreshSlotOverAbandoning(t *testing.T) {
	_, rom := testHeap(t, 64<<20)
	eng := testEngine(t)
	small := testNetShape(t, 1, 4)
	big := testNetShape(t, 2, 16)

	p, err := OpenPublication(rom)
	if err != nil {
		t.Fatalf("OpenPublication: %v", err)
	}
	publishNet(t, p, eng, small)
	publishNet(t, p, eng, small)
	used0 := cursors(rom)

	// Growing republish cannot fit the recycled small region; it lands
	// in a fresh table slot and the small region survives for reuse.
	publishNet(t, p, eng, big)
	if got := cursors(rom); got[0] == used0[0] || got[1] == used0[1] {
		t.Fatalf("heap cursors %v -> %v: an outgrown shape took no new table and extent", used0, got)
	}
	if got := p.LeakedBytes(); got != 0 {
		t.Fatalf("LeakedBytes = %d, want 0 (small region kept for reuse)", got)
	}
	used1 := cursors(rom)
	publishNet(t, p, eng, small) // recycles the surviving small region
	if got := cursors(rom); got != used1 {
		t.Fatalf("heap cursors moved %v -> %v republishing the kept shape", used1, got)
	}
}

// TestSlotGCLeaksOnlyOutgrownRegions: with the table full and every
// other slot pinned, a growing republish must replace a recycled
// region — the abandoned bytes are counted in LeakedBytes.
func TestSlotGCLeaksOnlyOutgrownRegions(t *testing.T) {
	_, rom := testHeap(t, 64<<20)
	eng := testEngine(t)
	small := testNetShape(t, 1, 4)
	big := testNetShape(t, 2, 16)
	smallSize := regionSize(collectBuffers(small))

	p, err := OpenPublication(rom)
	if err != nil {
		t.Fatalf("OpenPublication: %v", err)
	}
	// Fill all table slots with pinned small versions.
	pins := make([]*Pin, 0, maxPubSlots)
	for i := 0; i < maxPubSlots; i++ {
		perturb(small, float32(i+1))
		ver := publishNet(t, p, eng, small)
		pin, err := p.Pin(ver)
		if err != nil {
			t.Fatalf("Pin(%d): %v", ver, err)
		}
		pins = append(pins, pin)
	}
	// Everything pinned: no slot can take a new version.
	if _, err := p.PublishOut(eng, big); !errors.Is(err, ErrSlotsPinned) {
		t.Fatalf("PublishOut with all slots pinned = %v, want ErrSlotsPinned", err)
	}
	// Release one non-latest pin; the big shape cannot fit its small
	// region, the table cannot grow, so the region is abandoned.
	pins[0].Release()
	publishNet(t, p, eng, big)
	if got := p.LeakedBytes(); got != smallSize {
		t.Fatalf("LeakedBytes = %d, want %d (one abandoned small region)", got, smallSize)
	}
	for _, pin := range pins[1:] {
		pin.Release()
	}
}

// TestSlotGCSurvivesReopen: regionSize is persistent, so a publication
// reopened after a restart keeps reusing recycled regions.
func TestSlotGCSurvivesReopen(t *testing.T) {
	_, rom := testHeap(t, 64<<20)
	eng := testEngine(t)
	big := testNetShape(t, 2, 16)
	small := testNetShape(t, 1, 4)

	p, err := OpenPublication(rom)
	if err != nil {
		t.Fatalf("OpenPublication: %v", err)
	}
	publishNet(t, p, eng, big)
	publishNet(t, p, eng, big)
	used0 := cursors(rom)

	// Reattach (as recovery does) and republish a smaller shape.
	p2, err := OpenPublication(rom)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	publishNet(t, p2, eng, small)
	if got := cursors(rom); got != used0 {
		t.Fatalf("heap cursors moved %v -> %v after reopen; region sizes not persisted?", used0, got)
	}
	if p2.ReusedBytes() == 0 {
		t.Fatal("reopened publication did not reuse the recycled region")
	}
}

// TestTwinSlotsShareOneExtent: slots 0 and 1 are twins, so the second
// publish of a shape writes the back half of the extent the first one
// allocated and takes no new payload space; and slot 0 is recycled —
// re-laid out for a smaller shape in its own half — while its twin
// stays pinned, which still restores its own version bit for bit.
func TestTwinSlotsShareOneExtent(t *testing.T) {
	_, rom := testHeap(t, 64<<20)
	eng := testEngine(t)
	big, small := testNetShape(t, 2, 16), testNetShape(t, 1, 4)
	p, err := OpenPublication(rom)
	if err != nil {
		t.Fatalf("OpenPublication: %v", err)
	}
	publishNet(t, p, eng, big)
	low := rom.PayloadCursor()
	perturb(big, 1)
	v2 := publishNet(t, p, eng, big)
	if got := rom.PayloadCursor(); got != low {
		t.Fatalf("the twin's publish moved the payload cursor %d -> %d", low, got)
	}
	if s0, s1 := p.slots[0].fp32.pay, p.slots[1].fp32.pay; s0 != s1 {
		t.Fatalf("twin slots hold extents %+v and %+v, want one", s0, s1)
	}
	pin, err := p.Pin(v2)
	if err != nil {
		t.Fatalf("Pin: %v", err)
	}
	defer pin.Release()
	publishNet(t, p, eng, small)
	if p.slots[0].version != v2+1 || rom.PayloadCursor() != low {
		t.Fatalf("small shape went to slot with version %d, payload cursor %d; want slot 0 recycled in place", p.slots[0].version, rom.PayloadCursor())
	}
	m, err := pin.Open(eng, darknet.FP32)
	if err != nil {
		t.Fatalf("pin.Open: %v", err)
	}
	got := testNetShape(t, 2, 16)
	if _, err := m.MirrorIn(got); err != nil || !netsEqual(big, got) {
		t.Fatalf("pinned twin after its twin's relayout: err %v, equal %v", err, netsEqual(big, got))
	}
	checkLatest(t, p, eng, small, func() *darknet.Network { return testNetShape(t, 1, 4) }, false)
}
