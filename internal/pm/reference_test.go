package pm

import (
	"bytes"
	"math/rand"
	"testing"
	"time"
)

// refDevice is the naive model the Device is checked against: one bool
// per cache line, every operation a plain loop, and a crash that copies
// the whole persisted image back.
type refDevice struct {
	volatile  []byte
	persisted []byte
	dirty     []bool
	prof      Profile
	stats     Stats
	modeled   time.Duration
}

func newRefDevice(size int) *refDevice {
	return &refDevice{
		volatile:  make([]byte, size),
		persisted: make([]byte, size),
		dirty:     make([]bool, size/CacheLineSize),
		prof:      OptaneProfile(),
	}
}

func (r *refDevice) lines(off, n int) (first, last int) {
	return off / CacheLineSize, (off + n - 1) / CacheLineSize
}

func (r *refDevice) load(off, n int) {
	if n == 0 {
		return
	}
	first, last := r.lines(off, n)
	r.stats.Loads++
	r.stats.BytesLoaded += uint64(n)
	r.modeled += time.Duration(last-first+1) * r.prof.Load
}

func (r *refDevice) store(off int, data []byte) {
	copy(r.volatile[off:], data)
	if len(data) == 0 {
		return
	}
	first, last := r.lines(off, len(data))
	for l := first; l <= last; l++ {
		r.dirty[l] = true
	}
	r.stats.Stores++
	r.stats.BytesStored += uint64(len(data))
	r.modeled += time.Duration(last-first+1) * r.prof.Store
}

// copyRange is the Load into a bounce buffer followed by a Store that
// Device.Copy must be indistinguishable from.
func (r *refDevice) copyRange(dst, src, n int) {
	buf := append([]byte(nil), r.volatile[src:src+n]...)
	r.load(src, n)
	r.store(dst, buf)
}

func (r *refDevice) flush(off, n int, kind FlushKind) {
	if n == 0 {
		return
	}
	first, last := r.lines(off, n)
	for l := first; l <= last; l++ {
		copy(r.persisted[l*CacheLineSize:(l+1)*CacheLineSize], r.volatile[l*CacheLineSize:(l+1)*CacheLineSize])
		r.dirty[l] = false
	}
	r.stats.Flushes++
	r.stats.FlushedLines += uint64(last - first + 1)
	r.modeled += time.Duration(last-first+1) * r.prof.flushCost(kind)
}

func (r *refDevice) fence() {
	r.stats.Fences++
	r.modeled += r.prof.Fence
}

func (r *refDevice) crash() {
	copy(r.volatile, r.persisted)
	for l := range r.dirty {
		r.dirty[l] = false
	}
	r.stats.Crashes++
}

func (r *refDevice) dirtyLines() int {
	n := 0
	for _, d := range r.dirty {
		if d {
			n++
		}
	}
	return n
}

// TestDeviceMatchesNaiveReference drives seeded random Store / Copy /
// Flush / Fence / Crash sequences through the Device and the naive
// reference and compares every observable after every step. The device
// has a line count that is not a multiple of 64 and the range picker
// favours bitset-word boundaries and the last line, where the
// word-at-a-time dirty tracking and the dirty-run crash can go wrong.
func TestDeviceMatchesNaiveReference(t *testing.T) {
	const lines = 3*64 + 17
	const size = lines * CacheLineSize
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		dev := newTestDevice(t, size)
		ref := newRefDevice(size)

		// pickRange returns a byte range; half the time its first line
		// sits next to a word boundary or the range ends on the device's
		// last line.
		pickRange := func() (off, n int) {
			switch rng.Intn(4) {
			case 0:
				line := 64*(1+rng.Intn(3)) - 2 + rng.Intn(4)
				off = line*CacheLineSize + rng.Intn(CacheLineSize)
				n = rng.Intn(130 * CacheLineSize)
			case 1:
				n = 1 + rng.Intn(20*CacheLineSize)
				off = size - n
			default:
				off = rng.Intn(size)
				n = rng.Intn(70 * CacheLineSize)
			}
			if off+n > size {
				n = size - off
			}
			return off, n
		}

		for step := 0; step < 400; step++ {
			switch op := rng.Intn(10); {
			case op < 4:
				off, n := pickRange()
				data := make([]byte, n)
				rng.Read(data)
				if err := dev.Store(off, data); err != nil {
					t.Fatalf("seed %d step %d: Store: %v", seed, step, err)
				}
				ref.store(off, data)
			case op < 6:
				src, n := pickRange()
				dst := rng.Intn(size - n + 1)
				if err := dev.Copy(dst, src, n); err != nil {
					t.Fatalf("seed %d step %d: Copy: %v", seed, step, err)
				}
				ref.copyRange(dst, src, n)
			case op < 8:
				off, n := pickRange()
				kind := FlushKind(1 + rng.Intn(3))
				if err := dev.Flush(off, n, kind); err != nil {
					t.Fatalf("seed %d step %d: Flush: %v", seed, step, err)
				}
				ref.flush(off, n, kind)
			case op < 9:
				dev.Fence()
				ref.fence()
			default:
				dev.Crash()
				ref.crash()
			}
			if !bytes.Equal(dev.volatile, ref.volatile) {
				t.Fatalf("seed %d step %d: volatile view diverged", seed, step)
			}
			if !bytes.Equal(dev.PersistedSnapshot(), ref.persisted) {
				t.Fatalf("seed %d step %d: persisted image diverged", seed, step)
			}
			if got, want := dev.DirtyLines(), ref.dirtyLines(); got != want {
				t.Fatalf("seed %d step %d: DirtyLines = %d, want %d", seed, step, got, want)
			}
			if got := dev.Stats(); got != ref.stats {
				t.Fatalf("seed %d step %d: Stats = %+v, want %+v", seed, step, got, ref.stats)
			}
			if got := dev.Clock().Modeled(); got != ref.modeled {
				t.Fatalf("seed %d step %d: modeled time = %v, want %v", seed, step, got, ref.modeled)
			}
		}
	}
}

func TestCopyOutOfRange(t *testing.T) {
	dev := newTestDevice(t, 4*CacheLineSize)
	for _, c := range []struct{ dst, src, n int }{
		{0, 3 * CacheLineSize, 2 * CacheLineSize},
		{3 * CacheLineSize, 0, 2 * CacheLineSize},
		{-1, 0, 8},
		{0, 0, -1},
	} {
		if err := dev.Copy(c.dst, c.src, c.n); err == nil {
			t.Fatalf("Copy(%d, %d, %d) succeeded", c.dst, c.src, c.n)
		}
	}
	if st := dev.Stats(); st != (Stats{}) {
		t.Fatalf("rejected copies were accounted: %+v", st)
	}
}
