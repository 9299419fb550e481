package mirror

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"plinius/internal/darknet"
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
