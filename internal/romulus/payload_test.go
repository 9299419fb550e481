package romulus

import (
	"bytes"
	"errors"
	"testing"

	"plinius/internal/pm"
)

// fillBytes returns a FillPayload fill that writes b into every byte.
func fillBytes(b byte) func([]byte) error {
	return func(dst []byte) error {
		for i := range dst {
			dst[i] = b
		}
		return nil
	}
}

// loadPayload reads n bytes of payload half half at off.
func loadPayload(t *testing.T, r *Romulus, half, off, n int) []byte {
	t.Helper()
	buf := make([]byte, n)
	if err := r.ViewPayload(half, off, n, func(src []byte) error { copy(buf, src); return nil }); err != nil {
		t.Fatalf("ViewPayload(%d, %d, %d): %v", half, off, n, err)
	}
	return buf
}

// TestPayloadExtentsGrowDownToTheHeap: extents are line-aligned and
// grow down from the top of the region, the heap grows up, and neither
// allocator crosses the other.
func TestPayloadExtentsGrowDownToTheHeap(t *testing.T) {
	_, r := newHeap(t, 64<<10)
	if r.PayloadCursor() != r.RegionSize() {
		t.Fatalf("fresh payload cursor %d, want the region size %d", r.PayloadCursor(), r.RegionSize())
	}
	var a, b int
	err := r.Update(func() (err error) {
		if a, err = r.AllocPayload(100); err != nil {
			return err
		}
		b, err = r.AllocPayload(64)
		return err
	})
	if err != nil {
		t.Fatalf("AllocPayload: %v", err)
	}
	if a != r.RegionSize()-128 || b != a-64 || r.PayloadCursor() != b {
		t.Fatalf("extents at %d and %d, cursor %d; want %d, %d", a, b, r.PayloadCursor(), r.RegionSize()-128, r.RegionSize()-192)
	}
	free := r.PayloadCursor() - r.Used()
	err = r.Update(func() error { _, err := r.Alloc(free + 8); return err })
	if !errors.Is(err, ErrOutOfSpace) {
		t.Fatalf("Alloc into the payload extents = %v, want ErrOutOfSpace", err)
	}
	err = r.Update(func() error { _, err := r.AllocPayload(free + 1); return err })
	if !errors.Is(err, ErrOutOfSpace) {
		t.Fatalf("AllocPayload into the heap = %v, want ErrOutOfSpace", err)
	}
	if r.PayloadCursor() != b {
		t.Fatalf("failed allocations moved the payload cursor to %d", r.PayloadCursor())
	}
	err = r.Update(func() error { _, err := r.AllocPayload(free); return err })
	if err != nil || r.PayloadCursor() != r.Used() {
		t.Fatalf("AllocPayload of the whole free space = %v, cursor %d, used %d", err, r.PayloadCursor(), r.Used())
	}
}

// TestStoreRefusesPayloadExtents: a transaction cannot store at or
// above the payload cursor, where its commit copy would overwrite an
// extent's back half, nor allocate an extent over a range it stored.
func TestStoreRefusesPayloadExtents(t *testing.T) {
	_, r := newHeap(t, 64<<10)
	err := r.Update(func() error {
		if err := r.Store(r.PayloadCursor()-8, make([]byte, 8)); err != nil {
			return err
		}
		if _, err := r.AllocPayload(64); !errors.Is(err, ErrOutOfSpace) {
			t.Errorf("AllocPayload over a stored range = %v, want ErrOutOfSpace", err)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("store below the payload cursor: %v", err)
	}
	err = r.Update(func() error {
		if _, err := r.AllocPayload(64); err != nil {
			return err
		}
		return r.Store(r.PayloadCursor(), []byte{1})
	})
	if !errors.Is(err, ErrBadOffset) {
		t.Fatalf("store into an extent = %v, want ErrBadOffset", err)
	}
	if r.PayloadCursor() != r.RegionSize() {
		t.Fatalf("aborted AllocPayload left the cursor at %d", r.PayloadCursor())
	}
}

// TestPayloadHalvesAreIndependentAndOutsideTheTwinCopy: the two halves
// of an extent hold different bytes, a fill is durable at once, and
// neither a committed transaction nor recovery from a torn one copies a
// payload between the halves.
func TestPayloadHalvesAreIndependentAndOutsideTheTwinCopy(t *testing.T) {
	dev, r := newHeap(t, 64<<10)
	var ext, heap int
	err := r.Update(func() (err error) {
		if heap, err = r.Alloc(64); err != nil {
			return err
		}
		ext, err = r.AllocPayload(256)
		return err
	})
	if err != nil {
		t.Fatalf("alloc: %v", err)
	}
	for half, b := range []byte{0xA1, 0xB2} {
		if err := r.FillPayload(half, ext, 256, fillBytes(b)); err != nil {
			t.Fatalf("FillPayload(%d): %v", half, err)
		}
	}
	if dev.DirtyLines() != 0 {
		t.Fatalf("%d dirty lines after the fills", dev.DirtyLines())
	}
	// A torn transaction: recovery restores the heap from back.
	if err := r.Begin(); err != nil {
		t.Fatalf("Begin: %v", err)
	}
	if err := r.Store(heap, bytes.Repeat([]byte{9}, 64)); err != nil {
		t.Fatalf("Store: %v", err)
	}
	dev.Crash()
	r, err = Open(dev)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if err := r.Update(func() error { return r.Store(heap, make([]byte, 64)) }); err != nil {
		t.Fatalf("Update: %v", err)
	}
	for half, b := range []byte{0xA1, 0xB2} {
		if got := loadPayload(t, r, half, ext, 256); !bytes.Equal(got, bytes.Repeat([]byte{b}, 256)) {
			t.Fatalf("half %d holds %x..., want %x", half, got[:4], b)
		}
	}
}

// TestPayloadAccessBounds: fills may land anywhere above the heap —
// allocated extents or the free space the next extent will take — and
// views only inside allocated extents; no access crosses the
// region's end into the other half or names a third half.
func TestPayloadAccessBounds(t *testing.T) {
	_, r := newHeap(t, 64<<10)
	top := r.RegionSize()
	if err := r.FillPayload(0, top-128, 128, fillBytes(3)); err != nil {
		t.Fatalf("fill of the next extent's space: %v", err)
	}
	noView := func([]byte) error { return nil }
	if err := r.ViewPayload(0, top-128, 128, noView); !errors.Is(err, ErrBadOffset) {
		t.Fatalf("view of unallocated space = %v, want ErrBadOffset", err)
	}
	if err := r.Update(func() error { _, err := r.AllocPayload(128); return err }); err != nil {
		t.Fatalf("AllocPayload: %v", err)
	}
	if got := loadPayload(t, r, 0, top-128, 128); !bytes.Equal(got, bytes.Repeat([]byte{3}, 128)) {
		t.Fatal("the extent lost the bytes filled before it was allocated")
	}
	err := r.ViewPayload(0, top-128, 128, func(src []byte) error {
		if !bytes.Equal(src, bytes.Repeat([]byte{3}, 128)) {
			t.Error("the view does not lend the extent's bytes")
		}
		return nil
	})
	if err != nil {
		t.Fatalf("ViewPayload: %v", err)
	}
	for _, c := range []struct {
		name           string
		half, off, len int
	}{
		{"into the other half", 0, top - 64, 65},
		{"past the back region", 1, top - 64, 65},
		{"third half", 2, top - 128, 8},
		{"negative half", -1, top - 128, 8},
	} {
		if err := r.FillPayload(c.half, c.off, c.len, fillBytes(1)); !errors.Is(err, ErrBadOffset) {
			t.Errorf("%s: FillPayload = %v, want ErrBadOffset", c.name, err)
		}
		if err := r.ViewPayload(c.half, c.off, c.len, noView); !errors.Is(err, ErrBadOffset) {
			t.Errorf("%s: ViewPayload = %v, want ErrBadOffset", c.name, err)
		}
	}
	if err := r.FillPayload(0, r.Used()-8, 8, fillBytes(1)); !errors.Is(err, ErrBadOffset) {
		t.Fatalf("fill into the heap = %v, want ErrBadOffset", err)
	}
}

// TestFillPayloadChargesSGXExtras: under SGX-Romulus a fill costs what
// a transactional Store of the same bytes does on the device and in
// the env's store and write-back extras, less the redo-log append.
func TestFillPayloadChargesSGXExtras(t *testing.T) {
	fillDev, err := pm.New(64 << 10)
	if err != nil {
		t.Fatalf("pm.New: %v", err)
	}
	storeDev, err := pm.New(64 << 10)
	if err != nil {
		t.Fatalf("pm.New: %v", err)
	}
	fr, err := Open(fillDev, WithEnv(SGXEnv()))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	sr, err := Open(storeDev, WithEnv(SGXEnv()))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if err := sr.Begin(); err != nil {
		t.Fatalf("Begin: %v", err)
	}
	fillBefore, storeBefore := fillDev.Clock().Modeled(), storeDev.Clock().Modeled()
	if err := fr.FillPayload(0, 8192, 1000, fillBytes(7)); err != nil {
		t.Fatalf("FillPayload: %v", err)
	}
	if err := sr.Store(8192, bytes.Repeat([]byte{7}, 1000)); err != nil {
		t.Fatalf("Store: %v", err)
	}
	if f, s := fillDev.Clock().Modeled()-fillBefore, storeDev.Clock().Modeled()-storeBefore; f != s {
		t.Fatalf("fill charged %v, transactional store %v", f, s)
	}
}
