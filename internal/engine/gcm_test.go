package engine

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"plinius/internal/obs"
)

// gcmPair is one key on both AES-GCM paths: kern is the engine New
// builds (the kernel where the CPU runs it), std the same key forced
// onto the stdlib path, and ref crypto/cipher's GCM, the oracle.
type gcmPair struct {
	kern, std *Engine
	ref       cipher.AEAD
}

func newGCMPair(t testing.TB, seed int64) gcmPair {
	t.Helper()
	kern, err := New(testKey(), WithRand(rand.New(rand.NewSource(seed))))
	if err != nil {
		t.Fatal(err)
	}
	std, err := New(testKey(), WithRand(rand.New(rand.NewSource(seed+1))))
	if err != nil {
		t.Fatal(err)
	}
	std.kern = nil
	block, err := aes.NewCipher(testKey())
	if err != nil {
		t.Fatal(err)
	}
	ref, err := cipher.NewGCM(block)
	if err != nil {
		t.Fatal(err)
	}
	return gcmPair{kern, std, ref}
}

// check holds both paths to the oracle on one plaintext and aad: the
// frame each seals is the oracle's under the frame's IV, each opens the
// other's frame, and a seal and an open with the plaintext at exactly
// the frame's ciphertext area give the same frame and plaintext.
func (p gcmPair) check(plain, aad []byte) error {
	n := len(plain)
	for _, side := range []struct {
		name      string
		seal, opn *Engine
	}{{"kernel->stdlib", p.kern, p.std}, {"stdlib->kernel", p.std, p.kern}} {
		frame := make([]byte, SealedLen(n))
		if err := side.seal.SealInto(frame, plain, aad); err != nil {
			return fmt.Errorf("%s: seal: %v", side.name, err)
		}
		if want := p.ref.Seal(nil, frame[:IVSize], plain, aad); !bytes.Equal(frame[IVSize:], want) {
			return fmt.Errorf("%s: %d-byte plaintext, %d-byte aad: frame differs from crypto/cipher's", side.name, n, len(aad))
		}
		got := make([]byte, n)
		if err := side.opn.OpenAAD(got, frame, aad); err != nil || !bytes.Equal(got, plain) {
			return fmt.Errorf("%s: %d-byte plaintext, %d-byte aad: open err %v, equal %v", side.name, n, len(aad), err, bytes.Equal(got, plain))
		}
	}
	for _, e := range []*Engine{p.kern, p.std} {
		buf := make([]byte, SealedLen(n))
		copy(buf[IVSize:], plain)
		if err := e.SealInto(buf, buf[IVSize:IVSize+n], aad); err != nil {
			return fmt.Errorf("in-place seal: %v", err)
		}
		if want := p.ref.Seal(nil, buf[:IVSize], plain, aad); !bytes.Equal(buf[IVSize:], want) {
			return fmt.Errorf("in-place seal of %d bytes differs from crypto/cipher's", n)
		}
		if err := e.OpenAAD(buf[IVSize:IVSize+n], buf, aad); err != nil || !bytes.Equal(buf[IVSize:IVSize+n], plain) {
			return fmt.Errorf("in-place open of %d bytes: err %v", n, err)
		}
	}
	return nil
}

func randBytes(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	rng.Read(b)
	return b
}

// TestGCMKernelMatchesStdlib: every plaintext length from 0 to 4,160
// bytes (each tail shape of the kernel's 256-byte chunk, sixteen times
// over) and three large ones, with aad lengths 0-64 and 1,000.
func TestGCMKernelMatchesStdlib(t *testing.T) {
	t.Logf("GCM path: %s", GCMPath())
	p := newGCMPair(t, 1)
	rng := rand.New(rand.NewSource(2))
	for n := 0; n <= 4160; n++ {
		aadLen := n % 65
		if n%97 == 0 {
			aadLen = 1000
		}
		if err := p.check(randBytes(rng, n), randBytes(rng, aadLen)); err != nil {
			t.Fatal(err)
		}
	}
	for _, n := range []int{64 << 10, 1 << 20, 1<<20 + 13} {
		for _, aadLen := range []int{0, 16, 1000} {
			if err := p.check(randBytes(rng, n), randBytes(rng, aadLen)); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestOpenAnyByteTamperFails: flipping any one byte of the IV,
// ciphertext, tag or aad fails with ErrAuth, on both paths, and leaves
// dst zeroed.
func TestOpenAnyByteTamperFails(t *testing.T) {
	p := newGCMPair(t, 3)
	rng := rand.New(rand.NewSource(4))
	for _, n := range []int{0, 1, 15, 16, 17, 63, 64, 65, 255, 256, 257, 300} {
		plain, aad := randBytes(rng, n), randBytes(rng, 13)
		for _, e := range []*Engine{p.kern, p.std} {
			frame := make([]byte, SealedLen(n))
			if err := e.SealInto(frame, plain, aad); err != nil {
				t.Fatal(err)
			}
			open := func(what string, i int, frame, aad []byte) {
				t.Helper()
				dst := bytes.Repeat([]byte{0xa5}, n)
				if err := e.OpenAAD(dst, frame, aad); !errors.Is(err, ErrAuth) {
					t.Fatalf("%s: %d-byte plaintext, %s byte %d flipped: err %v, want ErrAuth", GCMPath(), n, what, i, err)
				}
				if !bytes.Equal(dst, make([]byte, n)) {
					t.Fatalf("%d-byte plaintext, %s byte %d flipped: dst not zeroed", n, what, i)
				}
			}
			for i := range frame {
				frame[i] ^= 0x80
				open("frame", i, frame, aad)
				frame[i] ^= 0x80
			}
			for i := range aad {
				aad[i] ^= 0x01
				open("aad", i, frame, aad)
				aad[i] ^= 0x01
			}
		}
	}
}

// TestSealNonceFromEnclaveMemory: a party that writes the frame's IV
// bytes between the IV draw and the seal does not choose the nonce.
// The IV source writes IV A into the slice it is given, then IV B into
// the frame being sealed; the frame must carry A and open.
func TestSealNonceFromEnclaveMemory(t *testing.T) {
	p := newGCMPair(t, 5)
	for _, e := range []*Engine{p.kern, p.std} {
		plain := []byte("weights that must stay under a nonce the enclave drew")
		frame := make([]byte, SealedLen(len(plain)))
		ivA := bytes.Repeat([]byte{0xaa}, IVSize)
		e.rng = readerFunc(func(b []byte) (int, error) {
			copy(b, ivA)
			copy(frame, bytes.Repeat([]byte{0xbb}, IVSize))
			return len(b), nil
		})
		if err := e.SealInto(frame, plain, nil); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(frame[:IVSize], ivA) {
			t.Fatalf("frame carries IV %x, want %x", frame[:IVSize], ivA)
		}
		got, err := e.Open(frame)
		if err != nil || !bytes.Equal(got, plain) {
			t.Fatalf("open: err %v, equal %v", err, bytes.Equal(got, plain))
		}
	}
}

type readerFunc func([]byte) (int, error)

func (f readerFunc) Read(b []byte) (int, error) { return f(b) }

// TestSealRejectsInexactOverlap: a plaintext overlapping the frame
// anywhere but exactly its ciphertext area is refused on both paths.
func TestSealRejectsInexactOverlap(t *testing.T) {
	p := newGCMPair(t, 6)
	for _, e := range []*Engine{p.kern, p.std} {
		buf := make([]byte, SealedLen(64)+1)
		if err := e.SealInto(buf[:SealedLen(64)], buf[IVSize+1:IVSize+65], nil); !errors.Is(err, errOverlap) {
			t.Fatalf("seal from an offset plaintext: %v, want errOverlap", err)
		}
		frame := make([]byte, SealedLen(64))
		if err := e.SealInto(frame, make([]byte, 64), nil); err != nil {
			t.Fatal(err)
		}
		if err := e.OpenAAD(frame[IVSize+1:IVSize+65], frame, nil); !errors.Is(err, errOverlap) {
			t.Fatalf("open into an offset dst: %v, want errOverlap", err)
		}
	}
}

// FuzzGCMKernel holds the kernel to crypto/cipher's GCM, as
// TestGCMKernelMatchesStdlib does, on fuzzed plaintext and aad, and
// requires a frame with the byte at flipAt flipped to fail with ErrAuth
// and a zeroed dst.
func FuzzGCMKernel(f *testing.F) {
	f.Add([]byte{}, []byte{}, uint16(0))
	f.Add([]byte("one block of text"), []byte("aad"), uint16(3))
	f.Add(bytes.Repeat([]byte{7}, 300), bytes.Repeat([]byte{1}, 70), uint16(299))
	f.Add(bytes.Repeat([]byte{0xff}, 1000), []byte{}, uint16(1027))
	f.Fuzz(func(t *testing.T, plain, aad []byte, flipAt uint16) {
		p := newGCMPair(t, int64(flipAt))
		if err := p.check(plain, aad); err != nil {
			t.Fatal(err)
		}
		frame := make([]byte, SealedLen(len(plain)))
		if err := p.kern.SealInto(frame, plain, aad); err != nil {
			t.Fatal(err)
		}
		frame[int(flipAt)%len(frame)] ^= 0x10
		dst := bytes.Repeat([]byte{0x5a}, len(plain))
		if err := p.kern.OpenAAD(dst, frame, aad); !errors.Is(err, ErrAuth) || !bytes.Equal(dst, make([]byte, len(plain))) {
			t.Fatalf("flipped byte %d of %d: err %v, dst zeroed %v", int(flipAt)%len(frame), len(frame), err, bytes.Equal(dst, make([]byte, len(plain))))
		}
	})
}

// TestGCMPathInfoSeries: GCMPath names the path New picks, and exactly
// one engine_gcm_path series is exported, 1, labelled with it.
func TestGCMPathInfoSeries(t *testing.T) {
	path := GCMPath()
	t.Logf("live GCM path: %s", path)
	e := newTestEngine(t)
	if want := map[bool]string{true: "vaes512", false: "stdlib"}[e.kern != nil]; path != want {
		t.Fatalf("GCMPath() = %q, the engine runs %q", path, want)
	}
	var seen int
	for name, v := range obs.Flatten(obs.Default()) {
		if strings.HasPrefix(name, "engine_gcm_path") {
			seen++
			if name != "engine_gcm_path{path="+path+"}" || v != 1 {
				t.Errorf("series %s = %v, want engine_gcm_path{path=%s} = 1", name, v, path)
			}
		}
	}
	if seen != 1 {
		t.Fatalf("%d engine_gcm_path series, want 1", seen)
	}
}
