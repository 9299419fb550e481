package mirror

import (
	"bytes"
	"crypto/rand"
	"encoding/binary"
	"math"
	mrand "math/rand"
	"runtime"
	"strings"
	"testing"

	"plinius/internal/darknet"
	"plinius/internal/engine"
	"plinius/internal/pm"
	"plinius/internal/romulus"
)

// layoutFixture is one sealed model region on its own scratch device:
// the network it was mirrored from and a same-shape network to restore
// into.
type layoutFixture struct {
	name     string
	rom      *romulus.Romulus
	m        *Model
	src, dst *darknet.Network
}

// newLayoutFixture mirrors the network cfg describes — or, with
// quantize, its darknet.QuantizeNetwork clone — into the snapshot store
// of a fresh device of devBytes, twice, so both frames of the first
// pair hold a generation of the same parameters: generation 1 in half
// 0, and generation 2, the mirror's latest, in half 1.
func newLayoutFixture(f *testing.F, name, cfg string, quantize bool, devBytes int, eng *engine.Engine) layoutFixture {
	dev, err := pm.New(devBytes)
	if err != nil {
		f.Fatalf("pm.New: %v", err)
	}
	rom, err := romulus.Open(dev)
	if err != nil {
		f.Fatalf("romulus.Open: %v", err)
	}
	parse := func(rng *mrand.Rand) *darknet.Network {
		net, err := darknet.ParseConfig(strings.NewReader(cfg), rng)
		if err != nil {
			f.Fatalf("ParseConfig: %v", err)
		}
		if quantize {
			if net, err = darknet.QuantizeNetwork(net); err != nil {
				f.Fatalf("QuantizeNetwork: %v", err)
			}
		}
		return net
	}
	fx := layoutFixture{name: name, rom: rom, src: parse(mrand.New(mrand.NewSource(1))), dst: parse(nil)}
	fx.src.Iteration = 3
	if fx.m, err = AllocModel(rom, eng, fx.src); err != nil {
		f.Fatalf("AllocModel: %v", err)
	}
	for i := 0; i < 2; i++ {
		if err := fx.m.MirrorOut(fx.src); err != nil {
			f.Fatalf("MirrorOut: %v", err)
		}
	}
	return fx
}

// FuzzOpenModelLayout damages the layer table of a sealed mirror on a
// scratch device — the frame header's layer count and payload half,
// the store header's mirror generation, and one node's buffer count,
// one buffer's offset and sealed length, and the node's next pointer,
// each written as the true value plus a fuzzed delta — then reopens the
// store, attaches to the mirror and restores with MirrorIn. The table is untrusted PM: every run must
// fail with an error or restore the sealed buffers bit for bit, and
// must never panic. The counts and lengths are fixed by the network's
// shape, so a run that changes any of them must fail; so must one that
// moves the half without the generation or the generation without the
// half, as the other half holds another generation. Attaching may
// allocate only a small multiple of the largest table the forged counts
// can name, and attaching plus restoring no more than the device holds.
//
// Every input runs against two rows: an fp32 mirror whose first weight
// buffer is over 1 MiB (two segments), and an int8 region whose first
// layer's codes are over 1 MiB (two segments) and whose two layers each
// carry a one-float scale. Either way the first buffer's recorded
// length also names a segment count.
func FuzzOpenModelLayout(f *testing.F) {
	const devBytes = 4 << 20
	eng, err := engine.New([]byte("0123456789abcdef"), engine.WithRand(rand.Reader))
	if err != nil {
		f.Fatalf("engine.New: %v", err)
	}
	const net = "[net]\nbatch=1\nchannels=1\nheight=32\nwidth=32\n\n"
	fixtures := []layoutFixture{
		newLayoutFixture(f, "fp32", net+
			"[connected]\noutput=300\nactivation=relu\n\n"+
			"[connected]\noutput=10\nactivation=linear\n\n[softmax]\n", false, devBytes, eng),
		newLayoutFixture(f, "int8", net+
			"[connected]\noutput=1100\nactivation=relu\n\n"+
			"[connected]\noutput=10\nactivation=linear\n\n[softmax]\n", true, devBytes, eng),
	}
	// Layout-dependent seeds on the fp32 row: the first buffer moved to
	// just below the largest offset, where offset + length wraps around;
	// the first node, claiming 64 buffers, linked to itself under a long
	// layer count; the largest layer count the table's size admits; and
	// the first buffer moved to the end of the half, where it crosses
	// into the other one.
	m := fixtures[0].m
	maxLayers := m.size / (nodeBufTable + nodeBufEntry)
	f.Add(int64(0), uint8(0), int64(0), uint8(0), int64(math.MaxInt64-100-m.layers[0].bufs[0].off), int64(0), int64(0), int64(0), int64(0))
	f.Add(int64(1<<15), uint8(0), int64(62), uint8(0), int64(0), int64(0), int64(m.layers[0].off-m.layers[1].off), int64(0), int64(0))
	f.Add(int64(maxLayers-len(m.layers)), uint8(0), int64(0), uint8(0), int64(0), int64(0), int64(0), int64(0), int64(0))
	f.Add(int64(0), uint8(0), int64(0), uint8(0), int64(fixtures[0].rom.RegionSize()-16-m.layers[0].bufs[0].off), int64(0), int64(0), int64(0), int64(0))
	// On the int8 row: layer 0's scale pointed at layer 1's, a frame of
	// the same length that only the bound place tells apart.
	q := fixtures[1].m
	f.Add(int64(0), uint8(0), int64(0), uint8(1), int64(q.layers[1].bufs[1].off-q.layers[0].bufs[1].off), int64(0), int64(0), int64(0), int64(0))

	f.Fuzz(func(t *testing.T, dNumLayers int64, node uint8, dNumBufs int64, buf uint8, dBufOff, dSealedLen, dNext, dHalf, dGen int64) {
		for _, fx := range fixtures {
			fx.damageAndRestore(t, devBytes, dNumLayers, node, dNumBufs, buf, dBufOff, dSealedLen, dNext, dHalf, dGen)
		}
	})
}

// damageAndRestore is one FuzzOpenModelLayout run against fx.
func (fx layoutFixture) damageAndRestore(t *testing.T, devBytes int, dNumLayers int64, node uint8, dNumBufs int64, buf uint8, dBufOff, dSealedLen, dNext, dHalf, dGen int64) {
	rom, m := fx.rom, fx.m
	li, bi := int(node)%len(m.layers), int(buf)%2
	entry := m.layers[li].off + nodeBufTable + nodeBufEntry*bi
	fields := []struct {
		off   int
		delta int64
	}{
		{m.off + frameHdrNumL, dNumLayers},
		{m.off + frameHdrHalf, dHalf},
		{m.st.hdrOff + hdrMirror + 8, dGen},
		{m.layers[li].off + nodeNumBufs, dNumBufs},
		{entry, dBufOff},
		{entry + 8, dSealedLen},
		{m.layers[li].off + nodeNext, dNext},
	}
	orig := make([]uint64, len(fields))
	for i, fl := range fields {
		var err error
		if orig[i], err = rom.LoadUint64(fl.off); err != nil {
			t.Fatalf("%s: LoadUint64: %v", fx.name, err)
		}
	}
	write := func(value func(i int) uint64) {
		err := rom.Update(func() error {
			for i, fl := range fields {
				if err := rom.StoreUint64(fl.off, value(i)); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("%s: write layer table: %v", fx.name, err)
		}
	}
	write(func(i int) uint64 { return orig[i] + uint64(fields[i].delta) })
	defer write(func(i int) uint64 { return orig[i] })
	for _, bufs := range collectBuffers(fx.dst) {
		for _, b := range bufs {
			for i := range b.f {
				b.f[i] = float32(math.NaN())
			}
			for i := range b.q {
				b.q[i] = -42
			}
		}
	}

	// One node more than the list holds, each at 64 buffers, times four.
	// plus the store header and its frame table.
	openBudget := 4*(frameHdrSize+(len(m.layers)+1)*(nodeBufTable+64*nodeBufEntry)) + 8*hdrSize
	var before, opened, after runtime.MemStats
	runtime.ReadMemStats(&before)
	got, err := OpenModel(rom, m.eng)
	runtime.ReadMemStats(&opened)
	if n := opened.TotalAlloc - before.TotalAlloc; n > uint64(openBudget) {
		t.Fatalf("%s: OpenModel allocated %d bytes, budget %d", fx.name, n, openBudget)
	}
	if err == nil {
		_, err = got.MirrorIn(fx.dst)
	}
	runtime.ReadMemStats(&after)
	if n := after.TotalAlloc - before.TotalAlloc; n > uint64(devBytes) {
		t.Fatalf("%s: open + restore allocated %d bytes from a %d-byte device", fx.name, n, devBytes)
	}
	if err == nil && (dNumLayers != 0 || dNumBufs != 0 || dSealedLen != 0) {
		t.Fatalf("%s: layer table with a forged count or length accepted", fx.name)
	}
	if err == nil && (dHalf == 0) != (dGen == 0) {
		t.Fatalf("%s: header naming half %+d, generation %+d accepted", fx.name, dHalf, dGen)
	}
	if err == nil && !netsEqual(fx.src, fx.dst) {
		t.Fatalf("%s: damaged layer table restored without error into different buffers", fx.name)
	}
}

// FuzzServingLayout forges the serving layout on a small device: the
// header's region offset (the offset of a scratch region plus a fuzzed
// delta) and capacity, and the region's words, written into the
// scratch region. The layout is untrusted PM: Layout must return an
// error or a layout whose every host row has one entry per range, must
// never panic, and may allocate only a small multiple of the capacity
// the header names — never anything sized from a forged count.
func FuzzServingLayout(f *testing.F) {
	const scratchBytes = 4096
	dev, err := pm.New(1 << 20)
	if err != nil {
		f.Fatalf("pm.New: %v", err)
	}
	rom, err := romulus.Open(dev)
	if err != nil {
		f.Fatalf("romulus.Open: %v", err)
	}
	p, err := OpenStore(rom)
	if err != nil {
		f.Fatalf("OpenStore: %v", err)
	}
	if err := p.RecordLayout(Layout{Plan: []darknet.ShardRange{{From: 0, To: 1}}}); err != nil {
		f.Fatalf("RecordLayout: %v", err)
	}
	var scratch int
	if err := rom.Update(func() (err error) { scratch, err = rom.Alloc(scratchBytes); return err }); err != nil {
		f.Fatalf("Alloc: %v", err)
	}
	f.Fuzz(func(t *testing.T, dOff int64, capBytes uint64, region []byte) {
		body := make([]byte, scratchBytes)
		copy(body, region)
		var hdr [16]byte
		binary.LittleEndian.PutUint64(hdr[:8], uint64(scratch)+uint64(dOff))
		binary.LittleEndian.PutUint64(hdr[8:], capBytes)
		err := rom.Update(func() error {
			if err := rom.Store(scratch, body); err != nil {
				return err
			}
			return rom.Store(p.hdrOff+hdrLayout, hdr[:])
		})
		if err != nil {
			t.Fatalf("forge layout: %v", err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		l, err := p.Layout()
		runtime.ReadMemStats(&after)
		if err != nil {
			return
		}
		// Each region word costs at most four in the heap — its decoded
		// value, a plan copy, and a row header per one-host row — plus
		// size-class rounding.
		if n := after.TotalAlloc - before.TotalAlloc; n > 4*capBytes+64<<10 {
			t.Fatalf("Layout allocated %d bytes from a %d-byte region", n, capBytes)
		}
		if len(l.Plan) == 0 && (l.Hosts != nil || uint64(scratch)+uint64(dOff) != 0) {
			t.Fatalf("recorded layout decoded without ranges: %v", l)
		}
		for g, row := range l.Hosts {
			if len(row) != len(l.Plan) {
				t.Fatalf("host row %d has %d entries for %d ranges", g, len(row), len(l.Plan))
			}
		}
	})
}

// FuzzKeyRecord forges the key rotation's record on a small device, as
// a crash or an adversary could leave it in PM: the fixed-size frame at
// RootRotation is overwritten with the fuzzed bytes (truncated or
// zero-padded to its size). RotatedKey under the rotation's old key
// must return an error or exactly the key the rotation wrapped — only
// that frame authenticates — never panic, and allocate no more than a
// fixed bound per read: nothing is sized from the record.
func FuzzKeyRecord(f *testing.F) {
	// A rotation from key 00 01 .. 0f to key a0 a1 .. af.
	dev, err := pm.New(1 << 20)
	if err != nil {
		f.Fatalf("pm.New: %v", err)
	}
	rom, err := romulus.Open(dev)
	if err != nil {
		f.Fatalf("romulus.Open: %v", err)
	}
	oldKey, newKey := make([]byte, engine.KeySize), make([]byte, engine.KeySize)
	for i := range newKey {
		oldKey[i], newKey[i] = byte(i), byte(0xA0+i)
	}
	oldEng, err := engine.New(oldKey, engine.WithRand(rand.Reader))
	if err != nil {
		f.Fatalf("engine.New: %v", err)
	}
	var record [keyRecordSize]byte
	if err := oldEng.SealInto(record[:], newKey, keyRecordAAD); err != nil {
		f.Fatalf("seal record: %v", err)
	}
	if err := rom.Update(func() error { return storeKeyRecord(rom, record[:]) }); err != nil {
		f.Fatalf("store record: %v", err)
	}
	if key, err := RotatedKey(rom, oldEng); err != nil || !bytes.Equal(key, newKey) {
		f.Fatalf("RotatedKey of the stored record = %x, %v; want the wrapped key", key, err)
	}
	off, err := rom.Root(RootRotation)
	if err != nil {
		f.Fatalf("record root: %v", err)
	}
	f.Fuzz(func(t *testing.T, record []byte) {
		body := make([]byte, keyRecordSize)
		copy(body, record)
		if err := rom.Update(func() error { return rom.Store(off, body) }); err != nil {
			t.Fatalf("forge record: %v", err)
		}
		// The bound is on the mean over many reads, as other goroutines
		// of a fuzzing worker allocate too.
		const reads = 100
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range reads - 1 {
			RotatedKey(rom, oldEng)
		}
		key, err := RotatedKey(rom, oldEng)
		runtime.ReadMemStats(&after)
		if n := (after.TotalAlloc - before.TotalAlloc) / reads; n > 1<<10 {
			t.Fatalf("reading the record allocated %d bytes per read", n)
		}
		if err == nil && !bytes.Equal(key, newKey) {
			t.Fatalf("RotatedKey returned %x, not the wrapped key", key)
		}
	})
}
