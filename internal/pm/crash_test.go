package pm

import (
	"bytes"
	"errors"
	"testing"
)

// crashEvents is a fixed run of persistence events, one per entry.
var crashEvents = []func(d *Device) error{
	func(d *Device) error { return d.Store(0, bytes.Repeat([]byte{1}, 100)) },
	func(d *Device) error { return d.Flush(0, 100, FlushCLWB) },
	func(d *Device) error { d.Fence(); return nil },
	func(d *Device) error { return d.StoreFlush(192, bytes.Repeat([]byte{2}, 70), FlushClflushOpt) },
	func(d *Device) error { return d.Store(512, []byte{3, 3, 3}) },
	func(d *Device) error { return d.FillFlush(700, 90, FlushCLWB, fillWith(4)) },
	func(d *Device) error { d.Fence(); return nil },
}

// fillWith returns a FillFlush fill that writes b into every byte.
func fillWith(b byte) func([]byte) error {
	return func(dst []byte) error {
		for i := range dst {
			dst[i] = b
		}
		return nil
	}
}

// sameDevice fails unless a and b hold the same counters, modeled
// time, volatile view and durable image. Reading the images loads from
// both devices.
func sameDevice(t *testing.T, what string, a, b *Device) {
	t.Helper()
	if a.Stats() != b.Stats() {
		t.Fatalf("%s: Stats %+v, want %+v", what, a.Stats(), b.Stats())
	}
	if a.Clock().Modeled() != b.Clock().Modeled() {
		t.Fatalf("%s: modeled %v, want %v", what, a.Clock().Modeled(), b.Clock().Modeled())
	}
	va, vb := make([]byte, a.Size()), make([]byte, b.Size())
	if err := a.Load(0, va); err != nil {
		t.Fatalf("%s: Load: %v", what, err)
	}
	if err := b.Load(0, vb); err != nil {
		t.Fatalf("%s: Load: %v", what, err)
	}
	if !bytes.Equal(va, vb) || !bytes.Equal(a.PersistedSnapshot(), b.PersistedSnapshot()) {
		t.Fatalf("%s: device images differ", what)
	}
}

// TestCrashAtRefusesEventAndAfter: a crash armed at event k lets the k-1
// events before it through and refuses event k and every mutation
// after it, a fence included, leaving the device exactly as a device
// that ran only the first k-1 events; loads keep working.
func TestCrashAtRefusesEventAndAfter(t *testing.T) {
	for k := 1; k <= len(crashEvents)+1; k++ {
		armed, ref := newTestDevice(t, 4096), newTestDevice(t, 4096)
		armed.CrashAt(k)
		for i, ev := range crashEvents {
			err := ev(armed)
			if i+1 < k {
				if err != nil {
					t.Fatalf("k=%d: event %d before the crash: %v", k, i+1, err)
				}
				if err := ev(ref); err != nil {
					t.Fatalf("reference event %d: %v", i+1, err)
				}
			} else if err != nil && !errors.Is(err, ErrCrashed) {
				t.Fatalf("k=%d: event %d: %v, want ErrCrashed", k, i+1, err)
			}
		}
		// Past the crash, every mutation is refused.
		if k <= len(crashEvents) {
			if err := armed.Store(1024, []byte{9}); !errors.Is(err, ErrCrashed) {
				t.Fatalf("k=%d: Store after the crash: %v", k, err)
			}
			if _, err := armed.CopyFlush(2048, 0, []Extent{{0, 64}}, FlushCLWB); !errors.Is(err, ErrCrashed) {
				t.Fatalf("k=%d: CopyFlush after the crash: %v", k, err)
			}
		}
		sameDevice(t, "armed device", armed, ref)
	}
}

// TestCrashAtCopyFlushAppliesExtentsBefore: a crash armed at a CopyFlush
// extent applies exactly the extents before it — bytes, counters and
// modeled time — on the caller alone and when the copy fans out over
// the worker pool.
func TestCrashAtCopyFlushAppliesExtentsBefore(t *testing.T) {
	for _, c := range []struct {
		name string
		n    int // bytes per extent
	}{
		{"serial", 200},
		{"par", parallelCopyBytes + 3*CacheLineSize},
	} {
		t.Run(c.name, func(t *testing.T) {
			withProcs(t, 4)
			ext := []Extent{{0, c.n}, {c.n + 64, c.n}, {2*c.n + 200, c.n}, {3*c.n + 300, c.n}}
			half := (4*c.n + 400 + CacheLineSize) / CacheLineSize * CacheLineSize
			src := make([]byte, half)
			for i := range src {
				src[i] = byte(i%251 + 1)
			}
			setup := func() *Device {
				d := newTestDevice(t, 2*half)
				if err := d.StoreFlush(0, src, FlushCLWB); err != nil {
					t.Fatalf("StoreFlush: %v", err)
				}
				return d
			}
			for j := 0; j <= len(ext); j++ {
				armed, ref := setup(), setup()
				armed.CrashAt(j + 1)
				n, err := armed.CopyFlush(half, 0, ext, FlushClflushOpt)
				if n != j || (j < len(ext)) != errors.Is(err, ErrCrashed) {
					t.Fatalf("crash at extent %d: CopyFlush = %d, %v", j+1, n, err)
				}
				if _, err := ref.CopyFlush(half, 0, ext[:j], FlushClflushOpt); err != nil {
					t.Fatalf("reference CopyFlush: %v", err)
				}
				sameDevice(t, "armed device", armed, ref)
			}
		})
	}
}

// TestCrashClearsRefusal: Crash is the power cycle: it clears a fired
// refusal and an armed crash that never fired.
func TestCrashClearsRefusal(t *testing.T) {
	d := newTestDevice(t, 4096)
	d.CrashAt(1)
	if err := d.Store(0, []byte{1}); !errors.Is(err, ErrCrashed) {
		t.Fatalf("armed Store: %v", err)
	}
	d.Crash()
	if err := d.StoreFlush(0, []byte{2}, FlushCLWB); err != nil {
		t.Fatalf("Store after the power cycle: %v", err)
	}
	d.CrashAt(3)
	d.Crash()
	for i := 0; i < 4; i++ {
		if err := d.Store(64*i, []byte{3}); err != nil {
			t.Fatalf("store %d after disarming by Crash: %v", i, err)
		}
	}
	if got := d.Stats().Crashes; got != 2 {
		t.Fatalf("Crashes = %d, want 2", got)
	}
}

// TestUnarmedDeviceAccountsAsBefore: a device never armed, disarmed
// (CrashAt(0)) or armed past the end of its run counts, charges and
// stores exactly the same.
func TestUnarmedDeviceAccountsAsBefore(t *testing.T) {
	run := func(arm func(d *Device)) *Device {
		d := newTestDevice(t, 4096)
		arm(d)
		for i, ev := range crashEvents {
			if err := ev(d); err != nil {
				t.Fatalf("event %d: %v", i+1, err)
			}
		}
		if _, err := d.CopyFlush(2048, 0, []Extent{{0, 100}, {192, 70}}, FlushClflush); err != nil {
			t.Fatalf("CopyFlush: %v", err)
		}
		return d
	}
	never := func(*Device) {}
	sameDevice(t, "disarmed device", run(func(d *Device) { d.CrashAt(0) }), run(never))
	sameDevice(t, "device armed past its run", run(func(d *Device) { d.CrashAt(100) }), run(never))
}
