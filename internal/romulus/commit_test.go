package romulus

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"plinius/internal/pm"
)

// TestCrashSweepChunkedPropagation sweeps every crash step of a
// transaction of eight ascending 40 KiB stores: 320 KiB, enough for
// Commit to propagate the log as one device copy split across cores
// (wherever the run has two or more), and for recovery to re-copy the
// heap the same way. Every crash must recover all-old or all-new, and
// the transaction must have exactly one crash point per persistence
// event: Begin 2 (MUTATING store, fence 1), one store per Store, Commit
// 3 (fence 2, COPYING store, fence 3), one per propagated log entry, and
// 2 more (fence 4, IDLE store).
func TestCrashSweepChunkedPropagation(t *testing.T) {
	const stores, block = 8, 40 << 10
	const wantSteps = 2 + stores + 3 + stores + 2
	oldImg := bytes.Repeat([]byte{0xAA}, stores*block)
	newImg := bytes.Repeat([]byte{0x55}, stores*block)

	swept := 0
	for crashPoint := 1; ; crashPoint++ {
		dev, r := newHeap(t, 1<<20)
		var off int
		if err := r.Update(func() error {
			o, err := r.Alloc(len(oldImg))
			if err != nil {
				return err
			}
			off = o
			return r.Store(off, oldImg)
		}); err != nil {
			t.Fatalf("seed Update: %v", err)
		}

		dev.CrashAt(crashPoint)
		err := r.Update(func() error {
			for i := 0; i < stores; i++ {
				if err := r.Store(off+i*block, newImg[i*block:(i+1)*block]); err != nil {
					return err
				}
			}
			return nil
		})
		if err == nil {
			got := make([]byte, len(newImg))
			if err := r.Load(off, got); err != nil {
				t.Fatalf("Load: %v", err)
			}
			if !bytes.Equal(got, newImg) {
				t.Fatal("committed transaction lost data")
			}
			break
		}
		if !errors.Is(err, pm.ErrCrashed) {
			t.Fatalf("crashPoint=%d: unexpected error %v", crashPoint, err)
		}
		swept++

		dev.Crash()
		r2, err := Open(dev)
		if err != nil {
			t.Fatalf("crashPoint=%d: recovery Open: %v", crashPoint, err)
		}
		got := make([]byte, len(oldImg))
		if err := r2.Load(off, got); err != nil {
			t.Fatalf("crashPoint=%d: Load: %v", crashPoint, err)
		}
		if !bytes.Equal(got, oldImg) && !bytes.Equal(got, newImg) {
			t.Fatalf("crashPoint=%d: recovered a torn heap", crashPoint)
		}
		if dirty := dev.DirtyLines(); dirty != 0 {
			t.Fatalf("crashPoint=%d: recovery left %d dirty lines", crashPoint, dirty)
		}
		// Recovery made its result durable: a further crash keeps it.
		dev.Crash()
		r3, err := Open(dev)
		if err != nil {
			t.Fatalf("crashPoint=%d: re-open after recovery: %v", crashPoint, err)
		}
		again := make([]byte, len(got))
		if err := r3.Load(off, again); err != nil {
			t.Fatalf("crashPoint=%d: Load: %v", crashPoint, err)
		}
		if !bytes.Equal(again, got) {
			t.Fatalf("crashPoint=%d: recovered heap changed across a second crash", crashPoint)
		}
	}
	if swept != wantSteps {
		t.Fatalf("swept %d crash points before the commit completed, want %d", swept, wantSteps)
	}
}

// TestSGXEnvModeledClockPinned runs a fixed SGX-Romulus sequence —
// format, a transaction of four stores of mixed sizes and alignments,
// an aborted transaction, and a crash inside commit propagation followed
// by recovery — and pins the device counters and the modeled clock after
// each phase. The values were recorded when every store and write-back
// was a separate device call; the fused device ops must charge the same
// base costs and the env's StoreMult / FlushMult / FenceMult extras.
// Format stores each region's whole 128-byte reserved prefix, payload
// cursor included, and every cursor read loads that prefix.
func TestSGXEnvModeledClockPinned(t *testing.T) {
	dev, err := pm.New(1 << 20)
	if err != nil {
		t.Fatalf("pm.New: %v", err)
	}
	check := func(phase string, want pm.Stats, wantModeled time.Duration) {
		t.Helper()
		if got := dev.Stats(); got != want {
			t.Fatalf("%s: Stats = %+v, want %+v", phase, got, want)
		}
		if got := dev.Clock().Modeled(); got != wantModeled {
			t.Fatalf("%s: modeled = %d, want %d", phase, got, wantModeled)
		}
	}
	fill := func(n int, b byte) []byte { return bytes.Repeat([]byte{b}, n) }

	r, err := Open(dev, WithEnv(SGXEnv()))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	check("format", pm.Stats{Stores: 4, Loads: 2, Flushes: 4, FlushedLines: 6, Fences: 1,
		BytesStored: 272, BytesLoaded: 144}, 342)

	var off int
	if err := r.Update(func() error {
		o, err := r.Alloc(8 << 10)
		if err != nil {
			return err
		}
		off = o
		if err := r.StoreUint64(off, 42); err != nil {
			return err
		}
		if err := r.Store(off+8+3, fill(100, 1)); err != nil {
			return err
		}
		return r.Store(off+256, fill(5000, 2))
	}); err != nil {
		t.Fatalf("commit: %v", err)
	}
	check("commit", pm.Stats{Stores: 15, Loads: 6, Flushes: 15, FlushedLines: 175, Fences: 5,
		BytesStored: 10528, BytesLoaded: 5260}, 10808)

	failure := errors.New("application error")
	if err := r.Update(func() error {
		if err := r.Store(off+1000, fill(700, 3)); err != nil {
			return err
		}
		return failure
	}); !errors.Is(err, failure) {
		t.Fatalf("abort: %v", err)
	}
	check("abort", pm.Stats{Stores: 19, Loads: 8, Flushes: 19, FlushedLines: 201, Fences: 8,
		BytesStored: 11944, BytesLoaded: 6088}, 12598)

	// Crash after the second of three log entries has propagated: the
	// events are Begin's store and fence, three stores, fence 2, the
	// COPYING store, fence 3, then one per log entry.
	dev.CrashAt(2 + 3 + 3 + 3)
	if err := r.Update(func() error {
		if err := r.Store(off, fill(64, 4)); err != nil {
			return err
		}
		if err := r.Store(off+4000, fill(3000, 5)); err != nil {
			return err
		}
		return r.Store(off+7000, fill(10, 6))
	}); !errors.Is(err, pm.ErrCrashed) {
		t.Fatalf("crash: %v", err)
	}
	dev.Crash()
	if _, err := Open(dev, WithEnv(SGXEnv())); err != nil {
		t.Fatalf("recovery Open: %v", err)
	}
	check("crash+recover", pm.Stats{Stores: 28, Loads: 16, Flushes: 28, FlushedLines: 433, Fences: 12,
		BytesStored: 26426, BytesLoaded: 17880, Crashes: 1}, 27394)
}
