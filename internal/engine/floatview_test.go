package engine

import (
	"bytes"
	"errors"
	"math"
	mrand "math/rand"
	"testing"
)

// fixedIV is an IV source that always yields the same bytes, so two
// seal paths can be compared byte for byte.
type fixedIV byte

func (f fixedIV) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(f)
	}
	return len(p), nil
}

func fixedIVEngine(t testing.TB) *Engine {
	t.Helper()
	e, err := New(testKey(), WithRand(fixedIV(0x5a)))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return e
}

// floatCases are the inputs the zero-conversion path must encode exactly
// like the portable per-float loop: empty, odd length, NaNs with
// payloads (which any float-valued copy could canonicalise) and a
// buffer far larger than one GCM block run.
func floatCases() map[string][]float32 {
	nan := []float32{
		math.Float32frombits(0x7fc00001), math.Float32frombits(0xffc12345),
		math.Float32frombits(0x7f800001), float32(math.Inf(-1)), -0.0, 1,
	}
	big := make([]float32, 1<<20)
	rng := mrand.New(mrand.NewSource(7))
	for i := range big {
		big[i] = math.Float32frombits(rng.Uint32())
	}
	return map[string][]float32{
		"empty":       {},
		"odd-length":  {1.5, -2.25, 3e-9},
		"nan-payload": nan,
		"1M-floats":   big,
	}
}

func sameBits(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

// TestSealFloatsWithMatchesReferenceEncoding pins the wire format: with
// a fixed IV, sealing straight from float memory yields exactly the
// bytes of sealing the explicit little-endian encoding, and a buffer
// sealed the old way opens bit-exactly through the new open.
func TestSealFloatsWithMatchesReferenceEncoding(t *testing.T) {
	e := fixedIVEngine(t)
	sc := e.AcquireScratch()
	defer e.ReleaseScratch(sc)
	for name, v := range floatCases() {
		want, err := e.Seal(FloatsToBytes(v))
		if err != nil {
			t.Fatalf("%s: Seal: %v", name, err)
		}
		got, err := e.SealFloatsWith(sc, v)
		if err != nil {
			t.Fatalf("%s: SealFloatsWith: %v", name, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: SealFloatsWith differs from Seal(FloatsToBytes)", name)
		}
		dst := make([]float32, len(v))
		if err := e.OpenFloatsWith(sc, dst, want); err != nil {
			t.Fatalf("%s: OpenFloatsWith of reference image: %v", name, err)
		}
		if !sameBits(dst, v) {
			t.Fatalf("%s: opened floats differ bitwise", name)
		}
	}
}

// TestOpenFloatsWithFailureContract: a length mismatch is refused
// before dst is written; a tampered buffer is ErrAuth (and dst is then
// garbage by contract, so only the error is asserted).
func TestOpenFloatsWithFailureContract(t *testing.T) {
	e := fixedIVEngine(t)
	v := []float32{1, 2, 3, 4, 5}
	sealed, err := e.SealFloats(v)
	if err != nil {
		t.Fatalf("SealFloats: %v", err)
	}
	for _, n := range []int{0, len(v) - 1, len(v) + 1} {
		dst := make([]float32, n)
		for i := range dst {
			dst[i] = 42
		}
		err := e.OpenFloatsWith(nil, dst, sealed)
		if err == nil || errors.Is(err, ErrAuth) {
			t.Fatalf("dst of %d floats: err = %v, want a length error", n, err)
		}
		for i := range dst {
			if dst[i] != 42 {
				t.Fatalf("dst of %d floats was written before the length check", n)
			}
		}
	}
	if err := e.OpenFloatsWith(nil, make([]float32, 1), sealed[:Overhead-1]); !errors.Is(err, ErrTooShort) {
		t.Fatalf("short buffer err = %v, want ErrTooShort", err)
	}
	for _, at := range []int{0, IVSize, len(sealed) - 1} {
		bad := append([]byte(nil), sealed...)
		bad[at] ^= 1
		if err := e.OpenFloatsWith(nil, make([]float32, len(v)), bad); !errors.Is(err, ErrAuth) {
			t.Fatalf("tampered byte %d: err = %v, want ErrAuth", at, err)
		}
	}
}

func TestDecodeFloatsMatchesBytesToFloats(t *testing.T) {
	for name, v := range floatCases() {
		raw := FloatsToBytes(v)
		dst := make([]float32, len(v))
		if err := DecodeFloats(dst, raw); err != nil {
			t.Fatalf("%s: DecodeFloats: %v", name, err)
		}
		if !sameBits(dst, v) {
			t.Fatalf("%s: decoded floats differ bitwise", name)
		}
	}
	if err := DecodeFloats(make([]float32, 2), make([]byte, 7)); err == nil {
		t.Fatal("DecodeFloats accepted a 7-byte buffer for 2 floats")
	}
}

// TestFloatSealOpenAllocateNothing guards the hot mirroring path: with
// a warm scratch neither direction allocates.
func TestFloatSealOpenAllocateNothing(t *testing.T) {
	e := fixedIVEngine(t)
	sc := e.AcquireScratch()
	defer e.ReleaseScratch(sc)
	v := make([]float32, 4096)
	dst := make([]float32, len(v))
	sealed, err := e.SealFloatsWith(sc, v)
	if err != nil {
		t.Fatalf("SealFloatsWith: %v", err)
	}
	sealed = append([]byte(nil), sealed...)
	if n := testing.AllocsPerRun(50, func() {
		if _, err := e.SealFloatsWith(sc, v); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("SealFloatsWith allocates %.0f times per call", n)
	}
	if n := testing.AllocsPerRun(50, func() {
		if err := e.OpenFloatsWith(sc, dst, sealed); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("OpenFloatsWith allocates %.0f times per call", n)
	}
}
