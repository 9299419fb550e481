package romulus

import (
	"bytes"
	"errors"
	"testing"

	"plinius/internal/pm"
)

func TestSequentialTransactionsAccumulate(t *testing.T) {
	dev, r := newHeap(t, 64<<10)
	var offs []int
	for i := 0; i < 10; i++ {
		if err := r.Update(func() error {
			off, err := r.Alloc(8)
			if err != nil {
				return err
			}
			offs = append(offs, off)
			return r.StoreUint64(off, uint64(i*i))
		}); err != nil {
			t.Fatalf("tx %d: %v", i, err)
		}
	}
	dev.Crash()
	r2, err := Open(dev)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	for i, off := range offs {
		got, err := r2.LoadUint64(off)
		if err != nil {
			t.Fatalf("LoadUint64: %v", err)
		}
		if got != uint64(i*i) {
			t.Fatalf("tx %d value = %d, want %d", i, got, i*i)
		}
	}
}

func TestRecoverIdempotent(t *testing.T) {
	dev, r := newHeap(t, 64<<10)
	var off int
	if err := r.Update(func() error {
		o, err := r.Alloc(16)
		if err != nil {
			return err
		}
		off = o
		return r.Store(off, []byte("stable state ..."))
	}); err != nil {
		t.Fatalf("Update: %v", err)
	}
	// Recover repeatedly without a crash: state must not change.
	for i := 0; i < 3; i++ {
		if err := r.Recover(); err != nil {
			t.Fatalf("Recover %d: %v", i, err)
		}
	}
	got := make([]byte, 16)
	if err := r.Load(off, got); err != nil {
		t.Fatalf("Load: %v", err)
	}
	if !bytes.Equal(got, []byte("stable state ...")) {
		t.Fatalf("state changed under repeated recovery: %q", got)
	}
	_ = dev
}

func TestAllTransactionFlushKinds(t *testing.T) {
	for _, kind := range []pm.FlushKind{pm.FlushClflush, pm.FlushClflushOpt, pm.FlushCLWB} {
		t.Run(kind.String(), func(t *testing.T) {
			dev, err := pm.New(64 << 10)
			if err != nil {
				t.Fatalf("pm.New: %v", err)
			}
			r, err := Open(dev, WithFlushKind(kind))
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			var off int
			if err := r.Update(func() error {
				o, err := r.Alloc(32)
				if err != nil {
					return err
				}
				off = o
				return r.Store(off, bytes.Repeat([]byte{0x5A}, 32))
			}); err != nil {
				t.Fatalf("Update: %v", err)
			}
			dev.Crash()
			r2, err := Open(dev, WithFlushKind(kind))
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			got := make([]byte, 32)
			if err := r2.Load(off, got); err != nil {
				t.Fatalf("Load: %v", err)
			}
			if !bytes.Equal(got, bytes.Repeat([]byte{0x5A}, 32)) {
				t.Fatalf("%s: data lost", kind)
			}
		})
	}
}

func TestLoadBoundsOutsideTx(t *testing.T) {
	_, r := newHeap(t, 64<<10)
	if err := r.Load(r.RegionSize(), make([]byte, 1)); err == nil {
		t.Fatal("out-of-region Load succeeded")
	}
	if err := r.Load(-1, make([]byte, 1)); err == nil {
		t.Fatal("negative Load succeeded")
	}
}

func TestUpdateAbortsOnCallbackError(t *testing.T) {
	_, r := newHeap(t, 64<<10)
	if err := r.Update(func() error { return pm.ErrOutOfRange }); err == nil {
		t.Fatal("Update swallowed error")
	}
	if r.InTx() {
		t.Fatal("transaction left open after failed Update")
	}
	// The heap is still usable.
	if err := r.Update(func() error {
		_, err := r.Alloc(8)
		return err
	}); err != nil {
		t.Fatalf("follow-up Update: %v", err)
	}
}

func TestEnvCostsMonotone(t *testing.T) {
	// Same workload, increasing environment multipliers => increasing
	// modeled time.
	run := func(env Env) int64 {
		dev, err := pm.New(1 << 20)
		if err != nil {
			t.Fatalf("pm.New: %v", err)
		}
		r, err := Open(dev, WithEnv(env))
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		res, err := RunSPS(r, SPSConfig{ArrayBytes: 64 << 10, SwapsPerTx: 32, Transactions: 10, Seed: 3})
		if err != nil {
			t.Fatalf("RunSPS: %v", err)
		}
		return res.ElapsedSimNs
	}
	native := run(NativeEnv())
	sgx := run(SGXEnv())
	if sgx <= native {
		t.Fatalf("SGX env (%d ns) not slower than native (%d ns)", sgx, native)
	}
}

func TestStatsFourFencesScaleWithTransactions(t *testing.T) {
	dev, r := newHeap(t, 64<<10)
	before := dev.Stats().Fences
	const txs = 7
	for i := 0; i < txs; i++ {
		if err := r.Update(func() error {
			off, err := r.Alloc(8)
			if err != nil {
				return err
			}
			return r.StoreUint64(off, 1)
		}); err != nil {
			t.Fatalf("Update: %v", err)
		}
	}
	got := dev.Stats().Fences - before
	if got != 4*txs {
		t.Fatalf("%d transactions used %d fences, want %d", txs, got, 4*txs)
	}
}

// TestCrashSweepOnMostlyEmptyHeap sweeps every crash step of a
// transaction that allocates, stores and re-roots on a heap whose used
// prefix is a sliver of the region. Recovery copies only [0, used) of
// the consistent twin, so this pins that the bound is the right one:
// whichever side the crash leaves consistent, the data, the allocator
// cursor and the roots all come back all-old or all-new, and recovery
// moves bytes in proportion to the live heap, not the region.
func TestCrashSweepOnMostlyEmptyHeap(t *testing.T) {
	const payload = 3000
	oldData := bytes.Repeat([]byte{0xAA}, payload)
	newData := bytes.Repeat([]byte{0x55}, payload)
	extra := bytes.Repeat([]byte{0x77}, payload)

	recovered := 0
	for crashPoint := 1; ; crashPoint++ {
		dev, r := newHeap(t, 8<<20)
		var off int
		if err := r.Update(func() error {
			o, err := r.Alloc(payload)
			if err != nil {
				return err
			}
			off = o
			if err := r.Store(off, oldData); err != nil {
				return err
			}
			return r.SetRoot(0, off)
		}); err != nil {
			t.Fatalf("seed Update: %v", err)
		}
		oldUsed := r.Used()
		if oldUsed*100 > r.RegionSize() {
			t.Fatalf("heap not mostly empty: used %d of %d", oldUsed, r.RegionSize())
		}

		// The swept transaction overwrites the old block, grows the
		// heap past the old cursor and moves a root to the new block.
		var off2 int
		dev.CrashAt(crashPoint)
		err := r.Update(func() error {
			if err := r.Store(off, newData); err != nil {
				return err
			}
			o, err := r.Alloc(payload)
			if err != nil {
				return err
			}
			off2 = o
			if err := r.Store(off2, extra); err != nil {
				return err
			}
			return r.SetRoot(1, off2)
		})
		if err == nil {
			if recovered == 0 {
				t.Fatal("no crash point fired")
			}
			t.Logf("swept %d crash points", recovered)
			return // swept past the transaction's last step
		}
		if !errors.Is(err, pm.ErrCrashed) {
			t.Fatalf("crashPoint=%d: unexpected error %v", crashPoint, err)
		}
		recovered++

		dev.Crash()
		before := dev.Stats()
		r2, err := Open(dev)
		if err != nil {
			t.Fatalf("crashPoint=%d: recovery Open: %v", crashPoint, err)
		}
		if moved := dev.Stats().BytesStored - before.BytesStored; moved > uint64(oldUsed+2*payload+64) {
			t.Fatalf("crashPoint=%d: recovery stored %d bytes on a heap using %d", crashPoint, moved, oldUsed)
		}
		got := make([]byte, payload)
		if err := r2.Load(off, got); err != nil {
			t.Fatalf("crashPoint=%d: Load: %v", crashPoint, err)
		}
		root0, _ := r2.Root(0)
		root1, _ := r2.Root(1)
		if root0 != off {
			t.Fatalf("crashPoint=%d: root 0 = %d, want %d", crashPoint, root0, off)
		}
		switch {
		case bytes.Equal(got, oldData):
			if r2.Used() != oldUsed || root1 != 0 {
				t.Fatalf("crashPoint=%d: all-old data with used=%d (want %d) root1=%d (want 0)", crashPoint, r2.Used(), oldUsed, root1)
			}
		case bytes.Equal(got, newData):
			got2 := make([]byte, payload)
			if err := r2.Load(off2, got2); err != nil {
				t.Fatalf("crashPoint=%d: Load new block: %v", crashPoint, err)
			}
			if r2.Used() <= oldUsed || root1 != off2 || !bytes.Equal(got2, extra) {
				t.Fatalf("crashPoint=%d: all-new data with used=%d root1=%d (want %d) or torn new block", crashPoint, r2.Used(), root1, off2)
			}
		default:
			t.Fatalf("crashPoint=%d: recovered torn state %x...", crashPoint, got[:8])
		}
		// The recovered heap keeps working and survives a further crash.
		if err := r2.Update(func() error {
			o, err := r2.Alloc(64)
			if err != nil {
				return err
			}
			return r2.Store(o, oldData[:64])
		}); err != nil {
			t.Fatalf("crashPoint=%d: Update after recovery: %v", crashPoint, err)
		}
		dev.Crash()
		if _, err := Open(dev); err != nil {
			t.Fatalf("crashPoint=%d: re-open after recovery: %v", crashPoint, err)
		}
	}
}
