package mirror

import (
	"crypto/rand"
	"errors"
	mrand "math/rand"
	"runtime"
	"strings"
	"testing"

	"plinius/internal/darknet"
	"plinius/internal/engine"
	"plinius/internal/pm"
	"plinius/internal/romulus"
)

// TestMirrorOutSparesLatestVersion: a version published by reference
// names the mirror's frame, and the saves after it write other frames
// only — a third frame once the mirror has moved on — so the version
// still restores its own parameters.
func TestMirrorOutSparesLatestVersion(t *testing.T) {
	_, rom := testHeap(t, 32<<20)
	eng := testEngine(t)
	net := testNet(t, 1)
	m, err := AllocModel(rom, eng, net)
	if err != nil {
		t.Fatalf("AllocModel: %v", err)
	}
	net.Iteration = 5
	if err := m.MirrorOut(net); err != nil {
		t.Fatalf("MirrorOut: %v", err)
	}
	if _, err := m.PublishLatest(net); err != nil {
		t.Fatalf("PublishLatest: %v", err)
	}
	want := cloneParams(net)
	for i := 0; i < 3; i++ {
		perturb(net, float32(i+1))
		if err := m.MirrorOut(net); err != nil {
			t.Fatalf("MirrorOut %d: %v", i, err)
		}
	}
	pin, err := m.st.Pin()
	if err != nil {
		t.Fatalf("Pin: %v", err)
	}
	defer pin.Release()
	v, err := pin.Open(eng, darknet.FP32)
	if err != nil {
		t.Fatalf("pin.Open: %v", err)
	}
	restored := testNet(t, 9)
	if iter, err := v.MirrorIn(restored); err != nil || iter != 5 || !slicesEqual(cloneParams(restored), want) {
		t.Fatalf("the version after three saves restores iteration %d, err %v", iter, err)
	}
	if got := len(m.st.frames); got != 4 {
		t.Fatalf("%d frames, want the pair plus a second pair once the mirror left the version's frame", got)
	}
}

// slicesEqual reports whether a and b hold the same floats bit for bit.
func slicesEqual(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestStoreRejectsUnknownFormat: a store header whose format word names
// another layout is refused with ErrFormat before anything else of it
// is read.
func TestStoreRejectsUnknownFormat(t *testing.T) {
	_, rom := testHeap(t, 8<<20)
	eng := testEngine(t)
	net := testNet(t, 1)
	m, err := AllocModel(rom, eng, net)
	if err != nil {
		t.Fatalf("AllocModel: %v", err)
	}
	if err := m.MirrorOut(net); err != nil {
		t.Fatalf("MirrorOut: %v", err)
	}
	for _, word := range []uint64{0, storeFormat + 1, storeFormat ^ 1<<40} {
		if err := rom.Update(func() error { return rom.StoreUint64(m.st.hdrOff+hdrFormat, word) }); err != nil {
			t.Fatalf("forge format: %v", err)
		}
		if _, err := OpenStore(rom); !errors.Is(err, ErrFormat) {
			t.Fatalf("OpenStore of format word %#x = %v, want ErrFormat", word, err)
		}
	}
}

// FuzzSnapshotTable forges the latest version's entry in the store
// header on a scratch device — its frame index and generation, the
// payload half its frame's layer table names, and the frame count, each
// as the true value plus a fuzzed delta — then reopens the store, pins
// the latest version and restores it. The header is untrusted PM: every
// run must fail with a typed error or restore exactly the parameters
// the named generation was sealed from, and must never panic; a
// rewritten generation alone fails authentication, as every segment's
// MAC binds its generation. Opening and restoring may allocate no more
// than the device holds.
//
// The fixture's version 1 names generation 1 in frame 0; the mirror has
// moved on to generation 2, other parameters, in frame 1, the other
// half of the same extent.
func FuzzSnapshotTable(f *testing.F) {
	const devBytes = 4 << 20
	dev, err := pm.New(devBytes)
	if err != nil {
		f.Fatalf("pm.New: %v", err)
	}
	rom, err := romulus.Open(dev)
	if err != nil {
		f.Fatalf("romulus.Open: %v", err)
	}
	eng, err := engine.New([]byte("0123456789abcdef"), engine.WithRand(rand.Reader))
	if err != nil {
		f.Fatalf("engine.New: %v", err)
	}
	parse := func(seed int64) *darknet.Network {
		net, err := darknet.ParseConfig(strings.NewReader(darknet.MNISTConfig(2, 4, 8)), mrand.New(mrand.NewSource(seed)))
		if err != nil {
			f.Fatalf("ParseConfig: %v", err)
		}
		return net
	}
	st, err := OpenStore(rom)
	if err != nil {
		f.Fatalf("OpenStore: %v", err)
	}
	net := parse(1)
	m := st.AllocMirror(eng, net)
	gens := map[uint64][]float32{}
	for gen := uint64(1); gen <= 2; gen++ {
		net.Iteration = int(gen)
		if err := m.MirrorOut(net); err != nil {
			f.Fatalf("MirrorOut: %v", err)
		}
		gens[gen] = cloneParams(net)
		if gen == 1 {
			if _, err := m.PublishLatest(net); err != nil {
				f.Fatalf("PublishLatest: %v", err)
			}
			perturb(net, 1)
		}
	}
	fields := []int{st.hdrOff + hdrLatest + 8, st.frames[0].fp32.off + frameHdrHalf, st.hdrOff + hdrLatest + 16, st.hdrOff + hdrNumFrames}

	f.Fuzz(func(t *testing.T, dFrame, dHalf, dGen, dCount int64) {
		deltas := []int64{dFrame, dHalf, dGen, dCount}
		orig := make([]uint64, len(fields))
		for i, off := range fields {
			if orig[i], err = rom.LoadUint64(off); err != nil {
				t.Fatalf("LoadUint64: %v", err)
			}
		}
		write := func(value func(i int) uint64) {
			err := rom.Update(func() error {
				for i, off := range fields {
					if err := rom.StoreUint64(off, value(i)); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				t.Fatalf("write store header: %v", err)
			}
		}
		write(func(i int) uint64 { return orig[i] + uint64(deltas[i]) })
		defer write(func(i int) uint64 { return orig[i] })

		dst := parse(7)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		opened := false
		s, err := OpenStore(rom)
		var pin *Pin
		if err == nil {
			opened = true
			pin, err = s.Pin()
		}
		var v *Model
		if err == nil {
			v, err = pin.Open(eng, darknet.FP32)
		}
		if err == nil {
			_, err = v.MirrorIn(dst)
		}
		runtime.ReadMemStats(&after)
		if n := after.TotalAlloc - before.TotalAlloc; n > devBytes {
			t.Fatalf("open + restore allocated %d bytes from a %d-byte device", n, devBytes)
		}
		if err != nil {
			if !errors.Is(err, ErrCorrupt) && !errors.Is(err, engine.ErrAuth) && !errors.Is(err, ErrShapeMismatch) {
				t.Fatalf("untyped error: %v", err)
			}
			if opened && dFrame == 0 && dHalf == 0 && dGen != 0 && !errors.Is(err, engine.ErrAuth) {
				t.Fatalf("version with generation %+d: %v, want ErrAuth", dGen, err)
			}
			return
		}
		want, ok := gens[orig[2]+uint64(dGen)]
		if !ok || !slicesEqual(cloneParams(dst), want) {
			t.Fatalf("forged entry (frame %+d, half %+d, generation %+d, count %+d) restored other parameters", dFrame, dHalf, dGen, dCount)
		}
	})
}
