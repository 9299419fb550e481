package mirror

import (
	"errors"
	"runtime"
	"testing"

	"plinius/internal/darknet"
	"plinius/internal/romulus"
)

// Serving layouts the tests record: a shard group's own split (no
// hosts), and the fleet layouts before and after a degraded replan —
// one group over 3 ranges becomes 2 groups over 4 ranges, so the
// rewrite outgrows the recorded region.
var (
	singleHostLayout = Layout{Plan: []darknet.ShardRange{{From: 0, To: 2}, {From: 2, To: 3}, {From: 3, To: 5}}}
	oldFleetLayout   = Layout{
		Plan:  []darknet.ShardRange{{From: 0, To: 2}, {From: 2, To: 3}, {From: 3, To: 5}},
		Hosts: [][]int{{0, 1, 2}},
	}
	newFleetLayout = Layout{
		Plan:  []darknet.ShardRange{{From: 0, To: 1}, {From: 1, To: 2}, {From: 2, To: 3}, {From: 3, To: 5}},
		Hosts: [][]int{{1, 2, 1, 2}, {2, 1, 2, 1}},
	}
)

// layoutOff returns the recorded layout region's offset.
func layoutOff(t *testing.T, p *Publication) int {
	t.Helper()
	off, _, err := p.layoutRegion()
	if err != nil {
		t.Fatalf("layoutRegion: %v", err)
	}
	return off
}

// reopen simulates power loss and re-attaches the publication.
func reopen(t *testing.T, rom *romulus.Romulus) *Publication {
	t.Helper()
	dev := rom.Device()
	dev.Crash()
	rom2, err := romulus.Open(dev)
	if err != nil {
		t.Fatalf("romulus.Open after crash: %v", err)
	}
	p, err := OpenPublication(rom2)
	if err != nil {
		t.Fatalf("OpenPublication after crash: %v", err)
	}
	return p
}

// TestShardManifestRoundTripAndReuse: a shard group's own split — a
// layout with no hosts — persists across a crash and re-open, rewrites
// in place when the new plan fits its region, and reallocates when it
// grows. An empty plan is refused before anything is written.
func TestShardManifestRoundTripAndReuse(t *testing.T) {
	_, rom := testHeap(t, 32<<20)
	p, err := OpenPublication(rom)
	if err != nil {
		t.Fatalf("OpenPublication: %v", err)
	}
	if l, err := p.Layout(); err != nil || l.Plan != nil || l.Hosts != nil {
		t.Fatalf("fresh layout = %v, %v; want the zero Layout", l, err)
	}
	if err := p.RecordLayout(Layout{}); err == nil {
		t.Fatal("RecordLayout accepted an empty plan")
	}
	if layoutOff(t, p) != 0 {
		t.Fatal("a refused layout allocated a region")
	}

	if err := p.RecordLayout(singleHostLayout); err != nil {
		t.Fatalf("RecordLayout: %v", err)
	}
	p = reopen(t, rom)
	if got, err := p.Layout(); err != nil || !got.equal(singleHostLayout) || got.Hosts != nil {
		t.Fatalf("layout after a crash = %v, %v; want %v", got, err, singleHostLayout)
	}

	// A smaller plan rewrites the same region in place.
	off1 := layoutOff(t, p)
	smaller := Layout{Plan: []darknet.ShardRange{{From: 0, To: 5}}}
	if err := p.RecordLayout(smaller); err != nil {
		t.Fatalf("RecordLayout smaller: %v", err)
	}
	if off2 := layoutOff(t, p); off2 != off1 {
		t.Fatalf("smaller plan moved the region: %d -> %d", off1, off2)
	}
	if got, err := p.Layout(); err != nil || !got.equal(smaller) {
		t.Fatalf("smaller plan read back %v, %v", got, err)
	}

	// A larger plan outgrows the region and reallocates.
	larger := Layout{Plan: []darknet.ShardRange{{From: 0, To: 1}, {From: 1, To: 2}, {From: 2, To: 3}, {From: 3, To: 4}, {From: 4, To: 5}}}
	if err := p.RecordLayout(larger); err != nil {
		t.Fatalf("RecordLayout larger: %v", err)
	}
	if layoutOff(t, p) == off1 {
		t.Fatal("outgrown plan was not reallocated")
	}
	if got, err := p.Layout(); err != nil || !got.equal(larger) {
		t.Fatalf("larger plan read back %v, %v", got, err)
	}
}

// TestPlacementRoundTripAndReuse: a fleet layout — plan and hosts
// together — persists across a crash and re-open, rewrites in place
// when the new layout fits its region, and reallocates when it grows.
// A host row that does not cover the plan is refused before anything
// is written.
func TestPlacementRoundTripAndReuse(t *testing.T) {
	_, rom := testHeap(t, 32<<20)
	p, err := OpenPublication(rom)
	if err != nil {
		t.Fatalf("OpenPublication: %v", err)
	}
	ragged := Layout{Plan: oldFleetLayout.Plan, Hosts: [][]int{{0, 1}}}
	if err := p.RecordLayout(ragged); err == nil {
		t.Fatal("RecordLayout accepted a host row shorter than the plan")
	}
	if layoutOff(t, p) != 0 {
		t.Fatal("a refused layout allocated a region")
	}

	if err := p.RecordLayout(newFleetLayout); err != nil {
		t.Fatalf("RecordLayout: %v", err)
	}
	p = reopen(t, rom)
	if got, err := p.Layout(); err != nil || !got.equal(newFleetLayout) {
		t.Fatalf("layout after a crash = %v, %v; want %v", got, err, newFleetLayout)
	}

	// A smaller layout — one group over 3 ranges — rewrites the same
	// region in place.
	off1 := layoutOff(t, p)
	if err := p.RecordLayout(oldFleetLayout); err != nil {
		t.Fatalf("RecordLayout smaller: %v", err)
	}
	if off2 := layoutOff(t, p); off2 != off1 {
		t.Fatalf("smaller layout moved the region: %d -> %d", off1, off2)
	}
	if got, err := p.Layout(); err != nil || !got.equal(oldFleetLayout) {
		t.Fatalf("smaller layout read back %v, %v", got, err)
	}

	// A larger one outgrows the region and reallocates.
	larger := Layout{Plan: newFleetLayout.Plan, Hosts: [][]int{{0, 0, 0, 0}, {1, 1, 1, 1}, {2, 2, 2, 2}}}
	if err := p.RecordLayout(larger); err != nil {
		t.Fatalf("RecordLayout larger: %v", err)
	}
	if layoutOff(t, p) == off1 {
		t.Fatal("outgrown layout was not reallocated")
	}
	if got, err := p.Layout(); err != nil || !got.equal(larger) {
		t.Fatalf("larger layout read back %v, %v", got, err)
	}
}

// TestShardManifestIndependentOfPublishes: publishing more versions
// never disturbs the recorded layout, and it still reads back whole
// after a crash and re-open.
func TestShardManifestIndependentOfPublishes(t *testing.T) {
	_, rom := testHeap(t, 32<<20)
	eng := testEngine(t)
	p, err := OpenPublication(rom)
	if err != nil {
		t.Fatalf("OpenPublication: %v", err)
	}
	if err := p.RecordLayout(newFleetLayout); err != nil {
		t.Fatalf("RecordLayout: %v", err)
	}
	net := testNet(t, 1)
	for i := 0; i < 4; i++ {
		net.Iteration = i + 1
		publishNet(t, p, eng, net)
	}
	if got, err := p.Layout(); err != nil || !got.equal(newFleetLayout) {
		t.Fatalf("layout after publishes = %v, %v; want %v", got, err, newFleetLayout)
	}
	p = reopen(t, rom)
	if got, err := p.Layout(); err != nil || !got.equal(newFleetLayout) {
		t.Fatalf("layout after publishes and a crash = %v, %v; want %v", got, err, newFleetLayout)
	}
}

// TestServingLayoutCrashSweep is the durability sweep of the one
// layout writer: a degraded-replan-shaped rewrite (1 group over 3
// ranges becomes 2 groups over 4, reallocating the region) is crashed
// before every commit step in turn until it completes crash-free, and
// every recovery must read back a plan and hosts that are both entirely
// old or both entirely new — never a plan from one write and hosts
// from the other. Re-recording the layout on record stores nothing.
func TestServingLayoutCrashSweep(t *testing.T) {
	completed := false
	for crashPoint := 1; crashPoint < 128 && !completed; crashPoint++ {
		_, rom := testHeap(t, 4<<20)
		p, err := OpenPublication(rom)
		if err != nil {
			t.Fatalf("OpenPublication: %v", err)
		}
		if err := p.RecordLayout(oldFleetLayout); err != nil {
			t.Fatalf("record old layout: %v", err)
		}

		rom.SetCrashPoint(crashPoint)
		err = p.RecordLayout(newFleetLayout)
		if err == nil {
			// The rewrite has fewer commit steps than this crash point:
			// the sweep has covered every step.
			completed = true
		} else if !errors.Is(err, romulus.ErrCrashInjected) {
			t.Fatalf("crash point %d: unexpected error %v", crashPoint, err)
		}

		p = reopen(t, rom)
		got, err := p.Layout()
		if err != nil {
			t.Fatalf("crash point %d: Layout: %v", crashPoint, err)
		}
		switch {
		case completed:
			if !got.equal(newFleetLayout) {
				t.Fatalf("crash-free rewrite read back %v, want the new layout", got)
			}
			dev := p.rom.Device()
			before := dev.Stats()
			if err := p.RecordLayout(newFleetLayout); err != nil {
				t.Fatalf("re-record equal layout: %v", err)
			}
			if st := dev.Stats(); st.BytesStored != before.BytesStored || st.Fences != before.Fences {
				t.Fatalf("re-recording the recorded layout stored %d bytes, %d fences; want 0", st.BytesStored-before.BytesStored, st.Fences-before.Fences)
			}
		case got.equal(oldFleetLayout), got.equal(newFleetLayout):
			// Either whole layout is legal mid-rewrite.
		default:
			t.Fatalf("crash point %d: torn layout %v (neither old %v nor new %v)",
				crashPoint, got, oldFleetLayout, newFleetLayout)
		}
	}
	if !completed {
		t.Fatal("sweep never reached a crash-free rewrite; raise the crash point bound")
	}
}

// TestServingLayoutForgedCountBounded: a layout whose range count —
// alone, or with the header's capacity — is forged to 2^26 on a 4 MiB
// device is refused before the decoder sizes anything from it.
func TestServingLayoutForgedCountBounded(t *testing.T) {
	_, rom := testHeap(t, 4<<20)
	p, err := OpenPublication(rom)
	if err != nil {
		t.Fatalf("OpenPublication: %v", err)
	}
	if err := p.RecordLayout(oldFleetLayout); err != nil {
		t.Fatalf("RecordLayout: %v", err)
	}
	off, capBytes, err := p.layoutRegion()
	if err != nil {
		t.Fatalf("layoutRegion: %v", err)
	}
	for _, forged := range []struct {
		name     string
		capBytes uint64
	}{
		{"count", uint64(capBytes)},
		{"count and capacity", 1 << 26},
	} {
		err := rom.Update(func() error {
			if err := rom.StoreUint64(p.hdrOff+pubHdrLayout+8, forged.capBytes); err != nil {
				return err
			}
			return rom.StoreUint64(off, 1<<26)
		})
		if err != nil {
			t.Fatalf("forge %s: %v", forged.name, err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		l, err := p.Layout()
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrPubCorrupt) {
			t.Fatalf("forged %s: Layout = %v, %v; want ErrPubCorrupt", forged.name, l, err)
		}
		if n := after.TotalAlloc - before.TotalAlloc; n >= 1<<20 {
			t.Fatalf("forged %s: Layout allocated %d bytes", forged.name, n)
		}
	}
}
