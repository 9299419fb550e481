package engine

import (
	"bytes"
	"crypto/rand"
	"encoding/binary"
	"errors"
	"math"
	"testing"
)

// FuzzOpenFloatsWith holds OpenFloatsWith to its contract on damaged
// frames: a sealed float vector is truncated by cut bytes, has the
// byte at flipAt XORed with mask, and is opened into a dst whose
// length is off by dstDelta floats. It must never panic; a frame too
// short for the metadata, or of the wrong length for dst, is rejected
// with dst untouched; any other damage fails authentication; and only
// the untouched frame opens, to the sealed values bit for bit.
func FuzzOpenFloatsWith(f *testing.F) {
	f.Add([]byte{0, 0, 0x80, 0x3f, 0, 0, 0xc0, 0x7f}, uint16(0), uint16(0), byte(0), int8(0))
	f.Add([]byte{1, 2, 3, 4}, uint16(1), uint16(0), byte(0), int8(0))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, uint16(0), uint16(5), byte(0x01), int8(0))
	f.Add([]byte{}, uint16(0), uint16(0), byte(0), int8(1))
	f.Add([]byte{9, 9, 9, 9}, uint16(4), uint16(0), byte(0), int8(-1))
	f.Fuzz(func(t *testing.T, raw []byte, cut, flipAt uint16, mask byte, dstDelta int8) {
		e, err := New(testKey(), WithRand(rand.Reader))
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		v := make([]float32, min(len(raw)/4, 1024))
		for i := range v {
			v[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[4*i:]))
		}
		sealed, err := e.SealFloats(v)
		if err != nil {
			t.Fatalf("SealFloats: %v", err)
		}
		frame := append([]byte(nil), sealed[:len(sealed)-int(cut)%(len(sealed)+1)]...)
		if len(frame) > 0 {
			frame[int(flipAt)%len(frame)] ^= mask
		}
		const sentinel = 0x7fc0dead
		dst := make([]float32, max(len(v)+int(dstDelta), 0))
		for i := range dst {
			dst[i] = math.Float32frombits(sentinel)
		}

		sc := e.AcquireScratch()
		err = e.OpenFloatsWith(sc, dst, frame)
		e.ReleaseScratch(sc)
		switch {
		case len(frame) < Overhead || len(frame)-Overhead != 4*len(dst):
			if err == nil || errors.Is(err, ErrAuth) {
				t.Fatalf("%d-byte frame into %d floats = %v, want a length rejection", len(frame), len(dst), err)
			}
			if len(frame) < Overhead && !errors.Is(err, ErrTooShort) {
				t.Fatalf("%d-byte frame = %v, want ErrTooShort", len(frame), err)
			}
			for i, d := range dst {
				if math.Float32bits(d) != sentinel {
					t.Fatalf("length rejection wrote dst[%d]", i)
				}
			}
		case !bytes.Equal(frame, sealed):
			if !errors.Is(err, ErrAuth) {
				t.Fatalf("damaged frame = %v, want ErrAuth", err)
			}
		default:
			if err != nil {
				t.Fatalf("intact frame: %v", err)
			}
			for i := range v {
				if math.Float32bits(dst[i]) != math.Float32bits(v[i]) {
					t.Fatalf("dst[%d] = %x, sealed %x", i, math.Float32bits(dst[i]), math.Float32bits(v[i]))
				}
			}
		}
	})
}
