package romulus

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"plinius/internal/pm"
)

func newHeap(t *testing.T, size int) (*pm.Device, *Romulus) {
	t.Helper()
	dev, err := pm.New(size)
	if err != nil {
		t.Fatalf("pm.New: %v", err)
	}
	r, err := Open(dev)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return dev, r
}

func TestOpenFormatsFreshDevice(t *testing.T) {
	_, r := newHeap(t, 64<<10)
	if r.Used() != reservedBytes {
		t.Fatalf("fresh heap used = %d, want %d", r.Used(), reservedBytes)
	}
	if r.RegionSize() <= 0 {
		t.Fatal("non-positive region size")
	}
}

func TestOpenRejectsTinyDevice(t *testing.T) {
	dev, err := pm.New(pm.CacheLineSize)
	if err != nil {
		t.Fatalf("pm.New: %v", err)
	}
	if _, err := Open(dev); !errors.Is(err, ErrRegionTooSmall) {
		t.Fatalf("Open tiny = %v, want ErrRegionTooSmall", err)
	}
}

func TestCommittedDataSurvivesCrashAndReopen(t *testing.T) {
	dev, r := newHeap(t, 64<<10)
	var off int
	want := []byte("committed payload")
	if err := r.Update(func() error {
		o, err := r.Alloc(len(want))
		if err != nil {
			return err
		}
		off = o
		return r.Store(off, want)
	}); err != nil {
		t.Fatalf("Update: %v", err)
	}
	dev.Crash()
	r2, err := Open(dev)
	if err != nil {
		t.Fatalf("re-Open: %v", err)
	}
	got := make([]byte, len(want))
	if err := r2.Load(off, got); err != nil {
		t.Fatalf("Load: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("after crash got %q, want %q", got, want)
	}
	if r2.Used() != r.Used() {
		t.Fatalf("allocator cursor lost: %d vs %d", r2.Used(), r.Used())
	}
}

func TestStoreRequiresTransaction(t *testing.T) {
	_, r := newHeap(t, 64<<10)
	if err := r.Store(reservedBytes, []byte("x")); !errors.Is(err, ErrNoTransaction) {
		t.Fatalf("Store outside tx = %v, want ErrNoTransaction", err)
	}
	if _, err := r.Alloc(8); !errors.Is(err, ErrNoTransaction) {
		t.Fatalf("Alloc outside tx = %v, want ErrNoTransaction", err)
	}
	if err := r.Commit(); !errors.Is(err, ErrNoTransaction) {
		t.Fatalf("Commit outside tx = %v, want ErrNoTransaction", err)
	}
	if err := r.Abort(); !errors.Is(err, ErrNoTransaction) {
		t.Fatalf("Abort outside tx = %v, want ErrNoTransaction", err)
	}
}

func TestNestedBeginRejected(t *testing.T) {
	_, r := newHeap(t, 64<<10)
	if err := r.Begin(); err != nil {
		t.Fatalf("Begin: %v", err)
	}
	if err := r.Begin(); !errors.Is(err, ErrNestedTx) {
		t.Fatalf("nested Begin = %v, want ErrNestedTx", err)
	}
	if err := r.Commit(); err != nil {
		t.Fatalf("Commit: %v", err)
	}
}

func TestStoreBoundsChecked(t *testing.T) {
	_, r := newHeap(t, 64<<10)
	if err := r.Begin(); err != nil {
		t.Fatalf("Begin: %v", err)
	}
	defer func() {
		if err := r.Commit(); err != nil {
			t.Fatalf("Commit: %v", err)
		}
	}()
	if err := r.Store(r.RegionSize(), []byte("x")); !errors.Is(err, ErrBadOffset) {
		t.Fatalf("out-of-region Store = %v, want ErrBadOffset", err)
	}
	if err := r.Store(-1, []byte("x")); !errors.Is(err, ErrBadOffset) {
		t.Fatalf("negative Store = %v, want ErrBadOffset", err)
	}
}

func TestAbortRollsBack(t *testing.T) {
	_, r := newHeap(t, 64<<10)
	var off int
	if err := r.Update(func() error {
		o, err := r.Alloc(8)
		if err != nil {
			return err
		}
		off = o
		return r.StoreUint64(off, 111)
	}); err != nil {
		t.Fatalf("Update: %v", err)
	}
	usedBefore := r.Used()
	failure := errors.New("application error")
	err := r.Update(func() error {
		if err := r.StoreUint64(off, 999); err != nil {
			return err
		}
		if _, err := r.Alloc(64); err != nil {
			return err
		}
		return failure
	})
	if !errors.Is(err, failure) {
		t.Fatalf("Update = %v, want application error", err)
	}
	got, err := r.LoadUint64(off)
	if err != nil {
		t.Fatalf("LoadUint64: %v", err)
	}
	if got != 111 {
		t.Fatalf("aborted store visible: %d", got)
	}
	if r.Used() != usedBefore {
		t.Fatalf("aborted alloc leaked: used %d -> %d", usedBefore, r.Used())
	}
}

func TestRootsPersist(t *testing.T) {
	dev, r := newHeap(t, 64<<10)
	if err := r.Update(func() error {
		off, err := r.Alloc(128)
		if err != nil {
			return err
		}
		return r.SetRoot(2, off)
	}); err != nil {
		t.Fatalf("Update: %v", err)
	}
	want, err := r.Root(2)
	if err != nil {
		t.Fatalf("Root: %v", err)
	}
	dev.Crash()
	r2, err := Open(dev)
	if err != nil {
		t.Fatalf("re-Open: %v", err)
	}
	got, err := r2.Root(2)
	if err != nil {
		t.Fatalf("Root: %v", err)
	}
	if got != want || got == 0 {
		t.Fatalf("root after crash = %d, want %d", got, want)
	}
}

func TestRootIndexValidated(t *testing.T) {
	_, r := newHeap(t, 64<<10)
	if _, err := r.Root(-1); !errors.Is(err, ErrBadRoot) {
		t.Fatalf("Root(-1) = %v, want ErrBadRoot", err)
	}
	if _, err := r.Root(NumRoots); !errors.Is(err, ErrBadRoot) {
		t.Fatalf("Root(max) = %v, want ErrBadRoot", err)
	}
}

func TestAllocExhaustion(t *testing.T) {
	_, r := newHeap(t, 8<<10)
	err := r.Update(func() error {
		_, err := r.Alloc(r.RegionSize())
		return err
	})
	if !errors.Is(err, ErrOutOfSpace) {
		t.Fatalf("oversized Alloc = %v, want ErrOutOfSpace", err)
	}
	if err := r.Update(func() error {
		_, err := r.Alloc(0)
		return err
	}); !errors.Is(err, ErrAllocNonPositive) {
		t.Fatalf("zero Alloc = %v, want ErrAllocNonPositive", err)
	}
}

func TestAllocAlignment(t *testing.T) {
	_, r := newHeap(t, 64<<10)
	if err := r.Update(func() error {
		a, err := r.Alloc(3)
		if err != nil {
			return err
		}
		b, err := r.Alloc(8)
		if err != nil {
			return err
		}
		if a%AllocAlign != 0 || b%AllocAlign != 0 {
			t.Errorf("unaligned offsets: %d %d", a, b)
		}
		if b-a < 8 {
			t.Errorf("allocations overlap: %d %d", a, b)
		}
		return nil
	}); err != nil {
		t.Fatalf("Update: %v", err)
	}
}

func TestFourFencesPerTransaction(t *testing.T) {
	dev, r := newHeap(t, 64<<10)
	before := dev.Stats().Fences
	if err := r.Update(func() error {
		off, err := r.Alloc(64)
		if err != nil {
			return err
		}
		return r.Store(off, make([]byte, 64))
	}); err != nil {
		t.Fatalf("Update: %v", err)
	}
	got := dev.Stats().Fences - before
	if got != 4 {
		t.Fatalf("transaction used %d fences, want 4 (Romulus invariant)", got)
	}
}

// TestPropertyCrashConsistency drives random multi-store transactions
// with random crash points; after recovery the heap must equal either
// the pre-transaction or the post-transaction image.
func TestPropertyCrashConsistency(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		dev, err := pm.New(64 << 10)
		if err != nil {
			return false
		}
		r, err := Open(dev)
		if err != nil {
			return false
		}
		// Seed: allocate an area and fill deterministically.
		const area = 1024
		var off int
		oldImg := make([]byte, area)
		rng.Read(oldImg)
		if err := r.Update(func() error {
			o, err := r.Alloc(area)
			if err != nil {
				return err
			}
			off = o
			return r.Store(off, oldImg)
		}); err != nil {
			return false
		}
		// Build the new image via 1-8 random range stores.
		newImg := append([]byte(nil), oldImg...)
		type rangeStore struct {
			at   int
			data []byte
		}
		stores := make([]rangeStore, 1+rng.Intn(8))
		for i := range stores {
			at := rng.Intn(area - 64)
			n := 1 + rng.Intn(64)
			data := make([]byte, n)
			rng.Read(data)
			stores[i] = rangeStore{at: at, data: data}
			copy(newImg[at:], data)
		}
		dev.CrashAt(1 + rng.Intn(25))
		err = r.Update(func() error {
			for _, s := range stores {
				if err := r.Store(off+s.at, s.data); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil && !errors.Is(err, pm.ErrCrashed) {
			return false
		}
		dev.Crash()
		r2, err := Open(dev)
		if err != nil {
			return false
		}
		got := make([]byte, area)
		if err := r2.Load(off, got); err != nil {
			return false
		}
		return bytes.Equal(got, oldImg) || bytes.Equal(got, newImg)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestLoadUint64RoundTrip(t *testing.T) {
	_, r := newHeap(t, 64<<10)
	var off int
	if err := r.Update(func() error {
		o, err := r.Alloc(8)
		if err != nil {
			return err
		}
		off = o
		return r.StoreUint64(off, 0xDEADBEEF)
	}); err != nil {
		t.Fatalf("Update: %v", err)
	}
	got, err := r.LoadUint64(off)
	if err != nil {
		t.Fatalf("LoadUint64: %v", err)
	}
	if got != 0xDEADBEEF {
		t.Fatalf("LoadUint64 = %#x", got)
	}
}

func TestReopenWithoutCrashKeepsState(t *testing.T) {
	dev, r := newHeap(t, 64<<10)
	var off int
	if err := r.Update(func() error {
		o, err := r.Alloc(16)
		if err != nil {
			return err
		}
		off = o
		return r.Store(off, []byte("0123456789abcdef"))
	}); err != nil {
		t.Fatalf("Update: %v", err)
	}
	r2, err := Open(dev)
	if err != nil {
		t.Fatalf("re-Open: %v", err)
	}
	got := make([]byte, 16)
	if err := r2.Load(off, got); err != nil {
		t.Fatalf("Load: %v", err)
	}
	if string(got) != "0123456789abcdef" {
		t.Fatalf("reopened heap lost data: %q", got)
	}
}

// TestCorruptCursorsDetected: Open refuses an allocator or payload
// cursor forged directly on the device (bypassing transactions, and
// flushed so it survives reopen) that names an impossible heap: used
// outside the region, a payload cursor below used, past the region or
// off a cache line.
func TestCorruptCursorsDetected(t *testing.T) {
	const size = 64 << 10
	for _, c := range []struct {
		name     string
		at       int
		value    uint64
		wantOpen bool
	}{
		{"used past the region", usedOffset, 1 << 60, false},
		{"used inside the reserved prefix", usedOffset, reservedBytes - 8, false},
		{"payload cursor below used", lowOffset, reservedBytes - pm.CacheLineSize, false},
		{"payload cursor zero", lowOffset, 0, false},
		{"payload cursor past the region", lowOffset, size, false},
		{"payload cursor off a line", lowOffset, 4096 + 8, false},
		{"payload cursor at used", lowOffset, reservedBytes, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			dev, _ := newHeap(t, size)
			var buf [8]byte
			binary.LittleEndian.PutUint64(buf[:], c.value)
			if err := dev.StoreFlush(headerSize+c.at, buf[:], pm.FlushClflushOpt); err != nil {
				t.Fatalf("StoreFlush: %v", err)
			}
			_, err := Open(dev)
			if c.wantOpen && err != nil {
				t.Fatalf("Open = %v, want a heap", err)
			}
			if !c.wantOpen && !errors.Is(err, ErrCorruptHeader) {
				t.Fatalf("Open = %v, want ErrCorruptHeader", err)
			}
		})
	}
}
