package mirror

import (
	"errors"
	"strings"
	"testing"

	mrand "math/rand"

	"plinius/internal/darknet"
)

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
			used0 := rom.Used()

			// Repeated same-or-smaller republish: every shape change
			// lands in a recycled big region and must fit in place.
			for i := 0; i < 6; i++ {
				publish(small)
				publish(big)
			}
			if got := rom.Used(); got != used0 {
				t.Fatalf("heap grew %d bytes across same-or-smaller republishes", got-used0)
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
	used0 := rom.Used()

	// Growing republish cannot fit the recycled small region; it lands
	// in a fresh table slot and the small region survives for reuse.
	publishNet(t, p, eng, big)
	if got := rom.Used(); got == used0 {
		t.Fatal("heap did not grow for an outgrown shape")
	}
	if got := p.LeakedBytes(); got != 0 {
		t.Fatalf("LeakedBytes = %d, want 0 (small region kept for reuse)", got)
	}
	used1 := rom.Used()
	publishNet(t, p, eng, small) // recycles the surviving small region
	if got := rom.Used(); got != used1 {
		t.Fatalf("heap grew %d bytes republishing the kept shape", got-used1)
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
	used0 := rom.Used()

	// Reattach (as recovery does) and republish a smaller shape.
	p2, err := OpenPublication(rom)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	publishNet(t, p2, eng, small)
	if got := rom.Used(); got != used0 {
		t.Fatalf("heap grew %d bytes after reopen; regionSize not persisted?", got-used0)
	}
	if p2.ReusedBytes() == 0 {
		t.Fatal("reopened publication did not reuse the recycled region")
	}
}
