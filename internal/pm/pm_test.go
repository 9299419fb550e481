package pm

import (
	"bytes"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"
	"time"
)

// withProcs runs the rest of the test at GOMAXPROCS n, so CopyFlush's
// chunked copy runs on several pool workers on any machine.
func withProcs(t *testing.T, n int) {
	t.Helper()
	old := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
}

func newTestDevice(t *testing.T, size int) *Device {
	t.Helper()
	d, err := New(size)
	if err != nil {
		t.Fatalf("New(%d): %v", size, err)
	}
	return d
}

func TestNewRejectsBadSizes(t *testing.T) {
	tests := []struct {
		name string
		size int
	}{
		{"zero", 0},
		{"negative", -64},
		{"unaligned", 100},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := New(tt.size); err == nil {
				t.Fatalf("New(%d) succeeded, want error", tt.size)
			}
		})
	}
}

func TestStoreLoadRoundTrip(t *testing.T) {
	d := newTestDevice(t, 1024)
	want := []byte("plinius mirroring")
	if err := d.Store(100, want); err != nil {
		t.Fatalf("Store: %v", err)
	}
	got := make([]byte, len(want))
	if err := d.Load(100, got); err != nil {
		t.Fatalf("Load: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("Load = %q, want %q", got, want)
	}
}

func TestStoreOutOfRange(t *testing.T) {
	d := newTestDevice(t, 128)
	if err := d.Store(120, make([]byte, 16)); err == nil {
		t.Fatal("Store past end succeeded, want error")
	}
	if err := d.Store(-1, make([]byte, 1)); err == nil {
		t.Fatal("Store at negative offset succeeded, want error")
	}
	if err := d.Load(128, make([]byte, 1)); err == nil {
		t.Fatal("Load past end succeeded, want error")
	}
}

func TestUnflushedStoresLostOnCrash(t *testing.T) {
	d := newTestDevice(t, 256)
	if err := d.Store(0, []byte("volatile only")); err != nil {
		t.Fatalf("Store: %v", err)
	}
	d.Crash()
	got := make([]byte, 13)
	if err := d.Load(0, got); err != nil {
		t.Fatalf("Load: %v", err)
	}
	if !bytes.Equal(got, make([]byte, 13)) {
		t.Fatalf("unflushed store survived crash: %q", got)
	}
}

func TestFlushedStoresSurviveCrash(t *testing.T) {
	for _, kind := range []FlushKind{FlushClflush, FlushClflushOpt, FlushCLWB} {
		t.Run(kind.String(), func(t *testing.T) {
			d := newTestDevice(t, 256)
			want := []byte("durable data")
			if err := d.Store(64, want); err != nil {
				t.Fatalf("Store: %v", err)
			}
			if err := d.Flush(64, len(want), kind); err != nil {
				t.Fatalf("Flush: %v", err)
			}
			d.Fence()
			d.Crash()
			got := make([]byte, len(want))
			if err := d.Load(64, got); err != nil {
				t.Fatalf("Load: %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("flushed store lost on crash: got %q want %q", got, want)
			}
		})
	}
}

func TestFlushGranularityIsCacheLine(t *testing.T) {
	d := newTestDevice(t, 256)
	// Two stores on the same line; flushing a 1-byte range persists the
	// whole line, as real hardware does.
	if err := d.Store(0, []byte{1, 2, 3, 4}); err != nil {
		t.Fatalf("Store: %v", err)
	}
	if err := d.Flush(0, 1, FlushClflushOpt); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	d.Crash()
	got := make([]byte, 4)
	if err := d.Load(0, got); err != nil {
		t.Fatalf("Load: %v", err)
	}
	if !bytes.Equal(got, []byte{1, 2, 3, 4}) {
		t.Fatalf("whole-line flush missing bytes: %v", got)
	}
}

func TestDirtyLineTracking(t *testing.T) {
	d := newTestDevice(t, 1024)
	if got := d.DirtyLines(); got != 0 {
		t.Fatalf("fresh device has %d dirty lines, want 0", got)
	}
	// Spans lines 0 and 1.
	if err := d.Store(60, make([]byte, 8)); err != nil {
		t.Fatalf("Store: %v", err)
	}
	if got := d.DirtyLines(); got != 2 {
		t.Fatalf("DirtyLines = %d, want 2", got)
	}
	if err := d.Flush(60, 8, FlushCLWB); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if got := d.DirtyLines(); got != 0 {
		t.Fatalf("DirtyLines after flush = %d, want 0", got)
	}
}

func TestStatsCounters(t *testing.T) {
	d := newTestDevice(t, 512)
	if err := d.Store(0, make([]byte, 100)); err != nil {
		t.Fatalf("Store: %v", err)
	}
	if err := d.Load(0, make([]byte, 50)); err != nil {
		t.Fatalf("Load: %v", err)
	}
	if err := d.Flush(0, 100, FlushClflushOpt); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	d.Fence()
	d.Crash()
	s := d.Stats()
	if s.Stores != 1 || s.Loads != 1 || s.Flushes != 1 || s.Fences != 1 || s.Crashes != 1 {
		t.Fatalf("unexpected stats: %+v", s)
	}
	if s.BytesStored != 100 || s.BytesLoaded != 50 {
		t.Fatalf("unexpected byte counters: %+v", s)
	}
	if s.FlushedLines != 2 {
		t.Fatalf("FlushedLines = %d, want 2 (100 bytes spans 2 lines)", s.FlushedLines)
	}
	d.StatsReset()
	if s := d.Stats(); s != (Stats{}) {
		t.Fatalf("StatsReset left %+v", s)
	}
}

func TestClockAdvances(t *testing.T) {
	d, err := New(1024, WithProfile(OptaneProfile()))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	clk := d.Clock()
	if err := d.Store(0, make([]byte, 256)); err != nil {
		t.Fatalf("Store: %v", err)
	}
	if err := d.Flush(0, 256, FlushClflushOpt); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	d.Fence()
	p := OptaneProfile()
	want := 4*p.Store + 4*p.ClflushOpt + p.Fence
	if got := clk.Modeled(); got != want {
		t.Fatalf("modeled time = %v, want %v", got, want)
	}
}

func TestFlushKindCosts(t *testing.T) {
	p := OptaneProfile()
	tests := []struct {
		kind FlushKind
		want time.Duration
	}{
		{FlushClflush, p.Clflush},
		{FlushClflushOpt, p.ClflushOpt},
		{FlushCLWB, p.CLWB},
	}
	for _, tt := range tests {
		t.Run(tt.kind.String(), func(t *testing.T) {
			d, err := New(64)
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			clk := d.Clock()
			if err := d.Flush(0, 1, tt.kind); err != nil {
				t.Fatalf("Flush: %v", err)
			}
			if got := clk.Modeled(); got != tt.want {
				t.Fatalf("flush cost = %v, want %v", got, tt.want)
			}
		})
	}
}

// TestPropertyCrashNeverExposesPartialFlushedRange checks the core
// crash-consistency invariant the mirroring module relies on: after a
// Store+Flush+Fence of a range, a crash at any later point preserves that
// exact range, regardless of subsequent unflushed stores over it.
func TestPropertyCrashNeverExposesPartialFlushedRange(t *testing.T) {
	const size = 4096
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d, err := New(size)
		if err != nil {
			return false
		}
		off := rng.Intn(size - 128)
		n := 1 + rng.Intn(128)
		want := make([]byte, n)
		rng.Read(want)
		if err := d.Store(off, want); err != nil {
			return false
		}
		if err := d.Flush(off, n, FlushClflushOpt); err != nil {
			return false
		}
		d.Fence()
		// Overwrite with junk but never flush: must vanish on crash,
		// except where the junk shares a cache line boundary with... no:
		// unflushed stores are always lost, so the flushed data must
		// reappear intact.
		junk := make([]byte, n)
		rng.Read(junk)
		if err := d.Store(off, junk); err != nil {
			return false
		}
		d.Crash()
		got := make([]byte, n)
		if err := d.Load(off, got); err != nil {
			return false
		}
		return bytes.Equal(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyPersistedMatchesVolatileAfterFullFlush checks that flushing
// every dirty line makes the persisted image identical to the volatile
// view.
func TestPropertyPersistedMatchesVolatileAfterFullFlush(t *testing.T) {
	const size = 2048
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d, err := New(size)
		if err != nil {
			return false
		}
		for i := 0; i < 20; i++ {
			off := rng.Intn(size - 64)
			n := 1 + rng.Intn(64)
			buf := make([]byte, n)
			rng.Read(buf)
			if err := d.Store(off, buf); err != nil {
				return false
			}
		}
		if err := d.Flush(0, size, FlushCLWB); err != nil {
			return false
		}
		d.Fence()
		vol := make([]byte, size)
		if err := d.Load(0, vol); err != nil {
			return false
		}
		return bytes.Equal(vol, d.PersistedSnapshot())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentChunkedCopies runs chunked CopyFlush calls on several
// devices at once, all sharing the process's worker pool, and checks
// every destination byte.
func TestConcurrentChunkedCopies(t *testing.T) {
	withProcs(t, 3)
	const half = 2*parallelCopyBytes + 64*CacheLineSize
	done := make(chan struct{})
	for g := 0; g < 4; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			d, err := New(2 * half)
			if err != nil {
				t.Errorf("New: %v", err)
				return
			}
			src := bytes.Repeat([]byte{byte(g + 1)}, half)
			if err := d.StoreFlush(0, src, FlushCLWB); err != nil {
				t.Errorf("StoreFlush: %v", err)
				return
			}
			ext := []Extent{{0, 100}, {130, 2000}, {2200, half - 2300}}
			for i := 0; i < 20; i++ {
				if err := d.CopyFlush(half, 0, ext, FlushClflushOpt); err != nil {
					t.Errorf("CopyFlush: %v", err)
					return
				}
			}
			got := d.PersistedSnapshot()[half:]
			for _, e := range ext {
				if !bytes.Equal(got[e.Off:e.Off+e.N], src[e.Off:e.Off+e.N]) {
					t.Errorf("device %d: extent %+v not copied", g, e)
				}
			}
			if !bytes.Equal(got[100:130], make([]byte, 30)) {
				t.Errorf("device %d: gap between extents written", g)
			}
		}(g)
	}
	for g := 0; g < 4; g++ {
		<-done
	}
}

// TestChunkedCopyFlushAllocatesNothing: a CopyFlush big enough to run
// on several pool workers allocates nothing. AllocsPerRun pins
// GOMAXPROCS to 1 and restores it after, so the measured call raises it
// again, which after the first call changes nothing.
func TestChunkedCopyFlushAllocatesNothing(t *testing.T) {
	const half = 4 * parallelCopyBytes
	d := newTestDevice(t, 2*half)
	ext := []Extent{{0, half / 2}, {half/2 + 100, half/2 - 100}}
	copyFlush := func() {
		runtime.GOMAXPROCS(4)
		if err := d.CopyFlush(half, 0, ext, FlushCLWB); err != nil {
			t.Fatalf("CopyFlush: %v", err)
		}
	}
	if allocs := testing.AllocsPerRun(50, copyFlush); allocs != 0 {
		t.Fatalf("chunked CopyFlush: %v allocs/op, want 0", allocs)
	}
}

// TestBackupAllocatedByChunkOnFirstDirty: the backup image is made a
// chunk at a time, by the first store that dirties a line in it. A
// write-through (StoreFlush) makes none, and a later store that dirties
// another line of a backed chunk allocates nothing.
func TestBackupAllocatedByChunkOnFirstDirty(t *testing.T) {
	d := newTestDevice(t, 4*backupChunk)
	line := make([]byte, CacheLineSize)
	backed := func() (n int) {
		for _, c := range d.backup {
			if c != nil {
				n++
			}
		}
		return n
	}
	if err := d.StoreFlush(0, line, FlushCLWB); err != nil {
		t.Fatalf("StoreFlush: %v", err)
	}
	if n := backed(); n != 0 {
		t.Fatalf("%d backup chunks after a write-through, want 0", n)
	}
	if err := d.Store(backupChunk+CacheLineSize, line); err != nil {
		t.Fatalf("Store: %v", err)
	}
	if n := backed(); n != 1 || d.backup[1] == nil {
		t.Fatalf("%d backup chunks after dirtying one line of chunk 1, want chunk 1 alone", n)
	}
	off := backupChunk
	store := func() {
		off = backupChunk + (off+CacheLineSize)%backupChunk
		if err := d.Store(off, line); err != nil {
			t.Fatalf("Store: %v", err)
		}
		if err := d.Flush(off, len(line), FlushCLWB); err != nil {
			t.Fatalf("Flush: %v", err)
		}
	}
	if allocs := testing.AllocsPerRun(100, store); allocs != 0 {
		t.Fatalf("Store into a backed chunk: %v allocs/op, want 0", allocs)
	}
	if n := backed(); n != 1 {
		t.Fatalf("%d backup chunks after storing into chunk 1 only, want 1", n)
	}
}

func TestConcurrentStoresDoNotRace(t *testing.T) {
	d := newTestDevice(t, 64*64)
	done := make(chan struct{})
	for g := 0; g < 4; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			buf := []byte{byte(g)}
			for i := 0; i < 100; i++ {
				off := (g*16 + i%16) * CacheLineSize
				if err := d.Store(off, buf); err != nil {
					t.Errorf("Store: %v", err)
					return
				}
				if err := d.Flush(off, 1, FlushClflushOpt); err != nil {
					t.Errorf("Flush: %v", err)
					return
				}
				d.Fence()
			}
		}(g)
	}
	for g := 0; g < 4; g++ {
		<-done
	}
}
