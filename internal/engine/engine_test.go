package engine

import (
	"bytes"
	"crypto/rand"
	"errors"
	"math"
	mrand "math/rand"
	"testing"
	"testing/quick"

	"plinius/internal/enclave"
)

func testKey() []byte {
	return []byte("0123456789abcdef")
}

func newTestEngine(t *testing.T) *Engine {
	t.Helper()
	e, err := New(testKey(), WithRand(rand.Reader))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return e
}

func TestNewRejectsBadKey(t *testing.T) {
	if _, err := New([]byte("short"), WithRand(rand.Reader)); !errors.Is(err, ErrBadKey) {
		t.Fatalf("short key = %v, want ErrBadKey", err)
	}
}

func TestNewRequiresIVSource(t *testing.T) {
	if _, err := New(testKey()); err == nil {
		t.Fatal("New without rand or enclave succeeded")
	}
}

func TestSealOpenRoundTrip(t *testing.T) {
	e := newTestEngine(t)
	want := []byte("layer weights")
	sealed, err := e.Seal(want)
	if err != nil {
		t.Fatalf("Seal: %v", err)
	}
	if len(sealed) != SealedLen(len(want)) {
		t.Fatalf("sealed len = %d, want %d", len(sealed), SealedLen(len(want)))
	}
	got, err := e.Open(sealed)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("Open = %q, want %q", got, want)
	}
}

func TestSealedBufferLayout(t *testing.T) {
	// Paper §IV: 12-byte IV + 16-byte MAC = 28 bytes of metadata per
	// buffer.
	if Overhead != 28 {
		t.Fatalf("Overhead = %d, want 28", Overhead)
	}
	e := newTestEngine(t)
	sealed, err := e.Seal([]byte{})
	if err != nil {
		t.Fatalf("Seal: %v", err)
	}
	if len(sealed) != Overhead {
		t.Fatalf("empty plaintext sealed to %d bytes, want %d", len(sealed), Overhead)
	}
}

func TestOpenRejectsTampering(t *testing.T) {
	e := newTestEngine(t)
	sealed, err := e.Seal([]byte("confidential model"))
	if err != nil {
		t.Fatalf("Seal: %v", err)
	}
	for _, idx := range []int{0, IVSize, len(sealed) - 1} {
		tampered := append([]byte(nil), sealed...)
		tampered[idx] ^= 0x01
		if _, err := e.Open(tampered); !errors.Is(err, ErrAuth) {
			t.Fatalf("tampered byte %d: Open = %v, want ErrAuth", idx, err)
		}
	}
}

func TestOpenRejectsShortBuffer(t *testing.T) {
	e := newTestEngine(t)
	if _, err := e.Open(make([]byte, Overhead-1)); !errors.Is(err, ErrTooShort) {
		t.Fatalf("short Open = %v, want ErrTooShort", err)
	}
}

func TestOpenRejectsWrongKey(t *testing.T) {
	a := newTestEngine(t)
	b, err := New([]byte("fedcba9876543210"), WithRand(rand.Reader))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	sealed, err := a.Seal([]byte("secret"))
	if err != nil {
		t.Fatalf("Seal: %v", err)
	}
	if _, err := b.Open(sealed); !errors.Is(err, ErrAuth) {
		t.Fatalf("wrong-key Open = %v, want ErrAuth", err)
	}
}

func TestSealUsesFreshIVs(t *testing.T) {
	e := newTestEngine(t)
	a, err := e.Seal([]byte("same plaintext"))
	if err != nil {
		t.Fatalf("Seal: %v", err)
	}
	b, err := e.Seal([]byte("same plaintext"))
	if err != nil {
		t.Fatalf("Seal: %v", err)
	}
	if bytes.Equal(a[:IVSize], b[:IVSize]) {
		t.Fatal("two seals reused the IV")
	}
	if bytes.Equal(a, b) {
		t.Fatal("two seals produced identical ciphertexts")
	}
}

func TestPlainLen(t *testing.T) {
	if _, err := PlainLen(10); !errors.Is(err, ErrTooShort) {
		t.Fatalf("PlainLen(10) err = %v, want ErrTooShort", err)
	}
	n, err := PlainLen(SealedLen(100))
	if err != nil {
		t.Fatalf("PlainLen: %v", err)
	}
	if n != 100 {
		t.Fatalf("PlainLen = %d, want 100", n)
	}
}

func TestFloatsRoundTrip(t *testing.T) {
	e := newTestEngine(t)
	want := []float32{0, 1.5, -3.25, math.MaxFloat32, float32(math.Inf(1))}
	sealed, err := e.SealFloats(want)
	if err != nil {
		t.Fatalf("SealFloats: %v", err)
	}
	got, err := e.OpenFloats(sealed)
	if err != nil {
		t.Fatalf("OpenFloats: %v", err)
	}
	if len(got) != len(want) {
		t.Fatalf("len = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("index %d: got %v want %v", i, got[i], want[i])
		}
	}
}

func TestBytesToFloatsRejectsUnaligned(t *testing.T) {
	if _, err := BytesToFloats(make([]byte, 7)); err == nil {
		t.Fatal("unaligned buffer accepted")
	}
}

func TestPropertySealOpenIdentity(t *testing.T) {
	e := newTestEngine(t)
	f := func(data []byte) bool {
		sealed, err := e.Seal(data)
		if err != nil {
			return false
		}
		got, err := e.Open(sealed)
		if err != nil {
			return false
		}
		return bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyFloatCodecIdentity(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := mrand.New(mrand.NewSource(seed))
		v := make([]float32, n)
		for i := range v {
			v[i] = float32(rng.NormFloat64())
		}
		got, err := BytesToFloats(FloatsToBytes(v))
		if err != nil {
			return false
		}
		if len(got) != len(v) {
			return false
		}
		for i := range v {
			if got[i] != v[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestEnclaveBoundEngineUsesEnclaveRNG(t *testing.T) {
	encl := enclave.NewHost(enclave.SGXEmlPMProfile()).NewEnclave(enclave.WithSeed(3))
	e, err := New(testKey(), WithEnclave(encl))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	sealed, err := e.Seal([]byte("x"))
	if err != nil {
		t.Fatalf("Seal: %v", err)
	}
	got, err := e.Open(sealed)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if string(got) != "x" {
		t.Fatalf("Open = %q", got)
	}
}

func TestEnclaveBoundSealChargesPagingBeyondEPC(t *testing.T) {
	encl := enclave.NewHost(enclave.SGXEmlPMProfile()).NewEnclave(enclave.WithSeed(3))
	if err := encl.Reserve(150 << 20); err != nil {
		t.Fatalf("Reserve: %v", err)
	}
	e, err := New(testKey(), WithEnclave(encl))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	before := encl.Clock().Modeled()
	if _, err := e.Seal(make([]byte, 1<<20)); err != nil {
		t.Fatalf("Seal: %v", err)
	}
	if encl.Clock().Modeled() <= before {
		t.Fatal("seal beyond EPC did not charge paging cost")
	}
}
