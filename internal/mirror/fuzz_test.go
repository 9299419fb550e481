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

// FuzzDecodeQuantWeights feeds arbitrary bytes to the int8 weights
// codec, decoding into n weights. It must never panic, must accept
// exactly the buffers of the right length whose zero-point is 0 and
// whose scale is finite and positive — leaving dst untouched otherwise
// — and an accepted buffer must re-encode to itself byte for byte.
func FuzzDecodeQuantWeights(f *testing.F) {
	valid := encodeQuantWeights([]int8{-127, 0, 5, 127}, 0.25)
	f.Add(valid, uint16(4))
	f.Add(valid, uint16(3))
	f.Add(encodeQuantWeights(nil, 1), uint16(0))
	f.Add([]byte{0, 0, 0x80, 0x3f, 1, 0, 0, 0, 7}, uint16(1)) // zero-point 1
	f.Add([]byte{0, 0, 0xc0, 0x7f, 0, 0, 0, 0, 7}, uint16(1)) // NaN scale
	f.Add([]byte{0, 0, 0x80, 0xbf, 0, 0, 0, 0, 7}, uint16(1)) // negative scale
	f.Add([]byte{0, 0, 0x80, 0x7f, 0, 0, 0, 0, 7}, uint16(1)) // +Inf scale
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 7}, uint16(1))       // zero scale
	f.Add([]byte{1, 2, 3}, uint16(0))                         // shorter than the header
	f.Fuzz(func(t *testing.T, b []byte, n uint16) {
		const sentinel = int8(-42)
		dst := make([]int8, n%4096)
		for i := range dst {
			dst[i] = sentinel
		}
		scale, err := decodeQuantWeights(b, dst)

		want := len(b) == darknet.QuantHeaderBytes+len(dst)
		if want {
			s := math.Float32frombits(binary.LittleEndian.Uint32(b))
			want = binary.LittleEndian.Uint32(b[4:]) == 0 && s > 0 && !math.IsInf(float64(s), 0)
		}
		if (err == nil) != want {
			t.Fatalf("decode(%d bytes into %d) = %v, want accepted %v", len(b), len(dst), err, want)
		}
		if err != nil {
			for i, q := range dst {
				if q != sentinel {
					t.Fatalf("rejected buffer wrote dst[%d]", i)
				}
			}
			return
		}
		if got := encodeQuantWeights(dst, scale); !bytes.Equal(got, b) {
			t.Fatalf("accepted buffer re-encodes to %x, want %x", got, b)
		}
	})
}

// FuzzOpenModelLayout damages the layer table of a sealed mirror on a
// scratch device — the header's layer count, and one node's buffer
// count, one buffer's offset and sealed length, and the node's next
// pointer, each written as the true value plus a fuzzed delta — then
// attaches with openModelAt and restores with MirrorIn. The table is
// untrusted PM: every run must fail with an error or restore the sealed
// parameters bit for bit, and must never panic. The counts and lengths
// are fixed by the network's shape, so a run that changes any of them
// must fail. Attaching may allocate only a small multiple of the
// largest table the forged counts can name, and attaching plus
// restoring no more than the device holds. The first weight buffer is
// over 1 MiB (two segments), so its recorded length also names a
// segment count.
func FuzzOpenModelLayout(f *testing.F) {
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
	const cfg = "[net]\nbatch=1\nchannels=1\nheight=32\nwidth=32\n\n" +
		"[connected]\noutput=300\nactivation=relu\n\n" +
		"[connected]\noutput=10\nactivation=linear\n\n[softmax]\n"
	src, err := darknet.ParseConfig(strings.NewReader(cfg), mrand.New(mrand.NewSource(1)))
	if err != nil {
		f.Fatalf("ParseConfig: %v", err)
	}
	dst, err := darknet.ParseConfig(strings.NewReader(cfg), nil)
	if err != nil {
		f.Fatalf("ParseConfig: %v", err)
	}
	src.Iteration = 3
	m, err := AllocModel(rom, eng, src)
	if err != nil {
		f.Fatalf("AllocModel: %v", err)
	}
	if err := m.MirrorOut(src); err != nil {
		f.Fatalf("MirrorOut: %v", err)
	}
	// Layout-dependent seeds: the first buffer moved to just below the
	// largest offset, where offset + length wraps around; the first
	// node, claiming 64 buffers, linked to itself under a long layer
	// count; and the largest layer count openModelAt accepts.
	maxLayers := rom.RegionSize() / (nodeBufTable + nodeBufEntry)
	f.Add(int64(0), uint8(0), int64(0), uint8(0), int64(math.MaxInt64-100-m.layers[0].bufs[0].off), int64(0), int64(0))
	f.Add(int64(1<<15), uint8(0), int64(62), uint8(0), int64(0), int64(0), int64(m.layers[0].off-m.layers[1].off))
	f.Add(int64(maxLayers-len(m.layers)), uint8(0), int64(0), uint8(0), int64(0), int64(0), int64(0))
	// One node more than the list holds, each at 64 buffers, times four.
	openBudget := 4 * (modelHdrSize + (len(m.layers)+1)*(nodeBufTable+64*nodeBufEntry))

	f.Fuzz(func(t *testing.T, dNumLayers int64, node uint8, dNumBufs int64, buf uint8, dBufOff, dSealedLen, dNext int64) {
		li, bi := int(node)%len(m.layers), int(buf)%2
		entry := m.layers[li].off + nodeBufTable + nodeBufEntry*bi
		fields := []struct {
			off   int
			delta int64
		}{
			{m.headOff + modelHdrNumL, dNumLayers},
			{m.layers[li].off + nodeNumBufs, dNumBufs},
			{entry, dBufOff},
			{entry + 8, dSealedLen},
			{m.layers[li].off + nodeNext, dNext},
		}
		orig := make([]uint64, len(fields))
		for i, fl := range fields {
			if orig[i], err = rom.LoadUint64(fl.off); err != nil {
				t.Fatalf("LoadUint64: %v", err)
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
				t.Fatalf("write layer table: %v", err)
			}
		}
		write(func(i int) uint64 { return orig[i] + uint64(fields[i].delta) })
		defer write(func(i int) uint64 { return orig[i] })
		for _, l := range dst.Layers {
			for _, p := range l.Params() {
				for i := range p {
					p[i] = float32(math.NaN())
				}
			}
		}

		var before, opened, after runtime.MemStats
		runtime.ReadMemStats(&before)
		got, err := openModelAt(rom, eng, m.headOff)
		runtime.ReadMemStats(&opened)
		if n := opened.TotalAlloc - before.TotalAlloc; n > uint64(openBudget) {
			t.Fatalf("openModelAt allocated %d bytes, budget %d", n, openBudget)
		}
		if err == nil {
			_, err = got.MirrorIn(dst)
		}
		runtime.ReadMemStats(&after)
		if n := after.TotalAlloc - before.TotalAlloc; n > devBytes {
			t.Fatalf("open + restore allocated %d bytes from a %d-byte device", n, devBytes)
		}
		if err == nil && (dNumLayers != 0 || dNumBufs != 0 || dSealedLen != 0) {
			t.Fatal("layer table with a forged count or length accepted")
		}
		if err == nil && !netsEqual(src, dst) {
			t.Fatal("damaged layer table restored without error into different parameters")
		}
	})
}
