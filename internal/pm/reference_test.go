package pm

import (
	"bytes"
	"math/rand"
	"sort"
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
	r.modeled += time.Duration(last-first+1) * r.prof.FlushCost(kind)
}

// copyFlush is the per-extent Load into a bounce buffer, Store and Flush
// that Device.CopyFlush must be indistinguishable from.
func (r *refDevice) copyFlush(dst, src int, ext []Extent, kind FlushKind) {
	for _, e := range ext {
		buf := append([]byte(nil), r.volatile[src+e.Off:src+e.Off+e.N]...)
		r.load(src+e.Off, e.N)
		r.store(dst+e.Off, buf)
		r.flush(dst+e.Off, e.N, kind)
	}
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

// TestDeviceMatchesNaiveReference drives seeded random Store /
// StoreFlush / CopyFlush / Flush / Fence / Crash sequences through the
// Device and the naive reference and compares every observable after
// every step. The device has a line count that is not a multiple of 64
// and the range picker favours bitset-word boundaries and the last line,
// where the word-at-a-time dirty tracking, the backups and the dirty-run
// crash can go wrong. Half the CopyFlush calls are ascending extents
// between disjoint spans of up to half the device, about half of them
// over parallelCopyBytes, which split into ranges on the worker pool at
// GOMAXPROCS above 1; the rest overlap and take the serial path.
func TestDeviceMatchesNaiveReference(t *testing.T) {
	const lines = 16<<10 + 17
	const size = lines * CacheLineSize
	if size/2 < 2*parallelCopyBytes {
		t.Fatalf("%d-byte device: no copy spans two ranges", size)
	}
	for seed := int64(1); seed <= 8; seed++ {
		withProcs(t, []int{1, 2, 3, 8}[seed%4])
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
		// pickExtents returns up to six extents for a CopyFlush: either
		// ascending inside a span of up to half the device, each after a
		// gap of up to two lines, with src and dst in opposite halves, or
		// anywhere, overlapping.
		pickExtents := func() (dst, src int, ext []Extent) {
			k := 1 + rng.Intn(6)
			if rng.Intn(2) == 0 {
				span := rng.Intn(size / 2)
				src = rng.Intn(size/2 - span + 1)
				dst = size/2 + rng.Intn(size/2-span+1)
				if rng.Intn(2) == 0 {
					src, dst = dst, src
				}
				cuts := make([]int, k+1)
				for i := range cuts {
					cuts[i] = rng.Intn(span + 1)
				}
				sort.Ints(cuts)
				for i := 0; i < k; i++ {
					gap := min(rng.Intn(2*CacheLineSize), cuts[i+1]-cuts[i])
					ext = append(ext, Extent{Off: cuts[i] + gap, N: cuts[i+1] - cuts[i] - gap})
				}
				return dst, src, ext
			}
			src, dst = rng.Intn(size), rng.Intn(size)
			limit := size - max(src, dst)
			for i := 0; i < k; i++ {
				off := rng.Intn(limit + 1)
				ext = append(ext, Extent{Off: off, N: rng.Intn(min(limit-off, 40*CacheLineSize) + 1)})
			}
			return dst, src, ext
		}

		for step := 0; step < 250; step++ {
			switch op := rng.Intn(10); {
			case op < 3:
				off, n := pickRange()
				data := make([]byte, n)
				rng.Read(data)
				if err := dev.Store(off, data); err != nil {
					t.Fatalf("seed %d step %d: Store: %v", seed, step, err)
				}
				ref.store(off, data)
			case op < 4:
				off, n := pickRange()
				data := make([]byte, n)
				rng.Read(data)
				kind := FlushKind(1 + rng.Intn(3))
				if err := dev.StoreFlush(off, data, kind); err != nil {
					t.Fatalf("seed %d step %d: StoreFlush: %v", seed, step, err)
				}
				ref.store(off, data)
				ref.flush(off, n, kind)
			case op < 6:
				dst, src, ext := pickExtents()
				kind := FlushKind(1 + rng.Intn(3))
				if _, err := dev.CopyFlush(dst, src, ext, kind); err != nil {
					t.Fatalf("seed %d step %d: CopyFlush: %v", seed, step, err)
				}
				ref.copyFlush(dst, src, ext, kind)
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

// TestCopyFlushOutOfRange checks that a CopyFlush with any extent out of
// range is rejected whole: nothing is copied, dirtied or accounted.
func TestCopyFlushOutOfRange(t *testing.T) {
	const size = 4 * CacheLineSize
	dev := newTestDevice(t, size)
	if err := dev.Store(0, bytes.Repeat([]byte{7}, CacheLineSize)); err != nil {
		t.Fatalf("Store: %v", err)
	}
	dev.StatsReset()
	before := dev.Clock().Modeled()
	for _, c := range []struct {
		dst, src int
		ext      []Extent
	}{
		{0, 3 * CacheLineSize, []Extent{{0, 2 * CacheLineSize}}},
		{3 * CacheLineSize, 0, []Extent{{0, 2 * CacheLineSize}}},
		{-1, 0, []Extent{{0, 8}}},
		{0, 0, []Extent{{0, -1}}},
		{2 * CacheLineSize, 0, []Extent{{-1, 8}}},
		{2 * CacheLineSize, 0, []Extent{{0, 8}, {CacheLineSize, 2 * CacheLineSize}}},
	} {
		if _, err := dev.CopyFlush(c.dst, c.src, c.ext, FlushClflushOpt); err == nil {
			t.Fatalf("CopyFlush(%d, %d, %v) succeeded", c.dst, c.src, c.ext)
		}
	}
	if st := dev.Stats(); st != (Stats{}) {
		t.Fatalf("rejected copies were accounted: %+v", st)
	}
	if got := dev.Clock().Modeled(); got != before {
		t.Fatalf("rejected copies advanced the clock by %v", got-before)
	}
	if got := dev.DirtyLines(); got != 1 {
		t.Fatalf("DirtyLines = %d after rejected copies, want 1", got)
	}
	if !bytes.Equal(dev.volatile[2*CacheLineSize:], make([]byte, 2*CacheLineSize)) {
		t.Fatal("a rejected copy wrote to the volatile view")
	}
}
