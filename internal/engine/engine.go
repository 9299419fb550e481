// Package engine implements the Plinius encryption engine (paper §IV):
// in-enclave AES-GCM-128 encryption and decryption of model parameters
// mirrored to persistent memory and of training-data batches read from
// PM.
//
// Buffer layout matches the paper: every sealed frame carries a random
// 12-byte initialisation vector and a 16-byte message authentication
// code, 28 bytes of metadata per sealed segment (IV ‖ ciphertext ‖ MAC).
// A parameter buffer is one segment, except that the mirror seals a
// buffer over 1 MiB, fp32 or int8, as several. Keys are 128-bit and are
// provisioned via the remote-attestation secure channel
// (enclave.Enclave.ProvisionKey).
//
// On an amd64 CPU with AVX-512, VAES and VPCLMULQDQ, SealInto and
// OpenAAD run gcm_amd64.s, an AES-128-GCM kernel that seals in one pass
// and opens with one load of each ciphertext block, picked once by
// CPUID (GCMPath names it). Every other CPU and build takes the stdlib
// path (crypto/cipher), which stages in pooled Scratch wherever its GCM
// would read untrusted memory twice. Either way the nonce lives in
// enclave memory until the frame is written, and a frame may be opened
// straight from memory another party writes.
package engine

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/subtle"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"
	"unsafe"

	"plinius/internal/enclave"
	"plinius/internal/obs"
)

// Process-wide AES-GCM op/byte counters: every seal/open in the
// process, whichever engine instance ran it. The paper's Table Ia
// attributes up to 92% of over-EPC save latency to this work, so the
// totals are first-class observability.
var (
	mSealOps   = obs.Default().Counter("engine_seal_ops_total", "AES-GCM seal operations.")
	mOpenOps   = obs.Default().Counter("engine_open_ops_total", "AES-GCM open operations.")
	mSealBytes = obs.Default().Counter("engine_sealed_bytes_total", "Plaintext bytes sealed.")
	mOpenBytes = obs.Default().Counter("engine_opened_bytes_total", "Sealed bytes opened (incl. 28 B metadata each).")
)

func init() {
	obs.Default().Gauge("engine_gcm_path",
		"AES-GCM implementation of SealInto and OpenAAD (info series, always 1).",
		obs.Label{Key: "path", Value: GCMPath()}).Set(1)
}

// GCMPath names the live AES-GCM path: "vaes512" (gcm_amd64.s) or
// "stdlib" (crypto/cipher).
func GCMPath() string {
	if haveKernel {
		return "vaes512"
	}
	return "stdlib"
}

// Sizes of the AES-GCM-128 scheme used throughout Plinius.
const (
	KeySize  = 16
	IVSize   = 12
	TagSize  = 16
	Overhead = IVSize + TagSize // 28 B per sealed segment (§VI CPU/memory overhead)
)

// Errors returned by the engine.
var (
	ErrAuth     = errors.New("engine: authentication failed")
	ErrTooShort = errors.New("engine: sealed buffer too short")
	ErrBadKey   = errors.New("engine: key must be 16 bytes")
)

// Engine seals and opens buffers under one 128-bit data key. It is safe
// for concurrent use: Seal and Open allocate their output, SealInto,
// OpenAAD and their float views seal and decrypt into the caller's
// memory, and SealFloatsWith and SealFloatsAAD stage through the
// caller's Scratch (AcquireScratch); the key state and the IV source
// are shared safely. The mirroring path fans out over this.
type Engine struct {
	aead cipher.AEAD
	kern *gcmKey // the kernel's key state; nil on the stdlib path
	rng  io.Reader
	encl *enclave.Enclave

	// rngMu serializes IV reads: the engine's IV source (the enclave
	// RNG or an injected reader) is not required to be concurrent-safe.
	// The reader fills iv, which readIV copies out under the lock: a
	// slice handed to the reader interface would escape to the heap.
	rngMu sync.Mutex
	iv    [IVSize]byte

	// pool recycles Scratch buffers for the concurrent seal/open mode.
	pool sync.Pool
}

// Scratch is a per-goroutine staging buffer for the concurrent
// seal/open mode. Obtain one with AcquireScratch, use it from a single
// goroutine, and return it with ReleaseScratch once the bytes produced
// into it are no longer needed. Floats are sealed from, and opened
// into, their own memory on a little-endian host; the stdlib path also
// stages frames and nonces here, and a big-endian host its encoded
// floats.
type Scratch struct {
	sealed []byte
	plain  []byte       // a big-endian host's little-endian encoding
	iv     [IVSize]byte // the stdlib path's nonce, passed to cipher.AEAD
}

// SealedBuf returns a length-n buffer backed by the scratch's staging
// area: where SealFloatsWith builds its output, and where callers load
// sealed bytes they will immediately OpenFloatsWith (which decrypts
// straight into its destination, so the two never alias). This keeps
// hot restore loops allocation-free.
func (s *Scratch) SealedBuf(n int) []byte {
	return grow(&s.sealed, n)
}

// grow returns (*b)[:n], reallocating *b when it is too short.
func grow(b *[]byte, n int) []byte {
	if cap(*b) < n {
		*b = make([]byte, n)
	}
	return (*b)[:n]
}

// Option configures an Engine.
type Option func(*Engine)

// WithRand sets the IV source. Inside Plinius this is the enclave RNG
// (sgx_read_rand); the default is the enclave passed via WithEnclave, or
// a panic-free zero reader is never used — New requires one of the two.
func WithRand(r io.Reader) Option {
	return func(e *Engine) { e.rng = r }
}

// WithEnclave binds the engine to an enclave: IVs come from the enclave
// RNG and every seal/open charges the EPC paging cost of touching its
// buffers (the dominant save-latency term beyond the EPC limit,
// Table Ia). The charge is host-aware: the enclave pages whenever its
// host's aggregate working set — all co-located enclaves together — is
// over the usable EPC, not only when this enclave alone is.
func WithEnclave(encl *enclave.Enclave) Option {
	return func(e *Engine) { e.encl = encl }
}

// enclaveRand adapts enclave.ReadRand to io.Reader.
type enclaveRand struct{ e *enclave.Enclave }

func (r enclaveRand) Read(p []byte) (int, error) {
	r.e.ReadRand(p)
	return len(p), nil
}

// New creates an engine for the given 128-bit key.
func New(key []byte, opts ...Option) (*Engine, error) {
	if len(key) != KeySize {
		return nil, fmt.Errorf("%w: got %d", ErrBadKey, len(key))
	}
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, fmt.Errorf("engine cipher: %w", err)
	}
	aead, err := cipher.NewGCM(block)
	if err != nil {
		return nil, fmt.Errorf("engine gcm: %w", err)
	}
	e := &Engine{aead: aead, kern: newGCMKey(key, block)}
	for _, opt := range opts {
		opt(e)
	}
	if e.rng == nil {
		if e.encl == nil {
			return nil, errors.New("engine: need WithRand or WithEnclave for IV generation")
		}
		e.rng = enclaveRand{e.encl}
	}
	return e, nil
}

// SealedLen returns the sealed size of an n-byte plaintext.
func SealedLen(n int) int { return n + Overhead }

// PlainLen returns the plaintext size of an n-byte sealed buffer, or an
// error if the buffer cannot hold the metadata.
func PlainLen(n int) (int, error) {
	if n < Overhead {
		return 0, fmt.Errorf("%w: %d bytes", ErrTooShort, n)
	}
	return n - Overhead, nil
}

// readIV returns a fresh IV, read under the RNG lock, so concurrent
// sealers can share one (possibly non-thread-safe) IV source.
func (e *Engine) readIV() ([IVSize]byte, error) {
	e.rngMu.Lock()
	defer e.rngMu.Unlock()
	if _, err := io.ReadFull(e.rng, e.iv[:]); err != nil {
		return [IVSize]byte{}, fmt.Errorf("engine iv: %w", err)
	}
	return e.iv, nil
}

// errOverlap rejects a plaintext buffer that shares memory with the
// frame's ciphertext area without starting where it starts: no single
// pass seals or opens across that.
var errOverlap = errors.New("engine: buffers overlap inexactly")

// inexactOverlap reports whether x and y share memory without starting
// at the same address.
func inexactOverlap(x, y []byte) bool {
	if len(x) == 0 || len(y) == 0 || &x[0] == &y[0] {
		return false
	}
	xs, ys := uintptr(unsafe.Pointer(&x[0])), uintptr(unsafe.Pointer(&y[0]))
	return xs < ys+uintptr(len(y)) && ys < xs+uintptr(len(x))
}

// Seal encrypts plaintext into IV ‖ ciphertext ‖ MAC with a fresh random
// IV, charging EPC paging for the touched bytes when enclave-bound.
func (e *Engine) Seal(plaintext []byte) ([]byte, error) {
	out := make([]byte, SealedLen(len(plaintext)))
	return out, e.SealInto(out, plaintext, nil)
}

// Open authenticates and decrypts a buffer produced by Seal.
func (e *Engine) Open(sealed []byte) ([]byte, error) {
	n, err := PlainLen(len(sealed))
	if err != nil {
		return nil, err
	}
	pt := make([]byte, n)
	if err := e.OpenAAD(pt, sealed, nil); err != nil {
		return nil, err
	}
	return pt, nil
}

// SealInto seals plain as IV ‖ ciphertext ‖ MAC into dst, which must be
// exactly SealedLen(len(plain)) bytes — the caller's own memory, or a
// PM range being filled in place. The MAC also covers aad, which is not
// stored in the frame: the frame opens only through OpenAAD with the
// same aad, and a nil aad gives exactly Seal's frame. AES-GCM reads
// plain where it lies; plain may also be dst's ciphertext area
// (dst[IVSize:][:len(plain)]), which is then sealed in place, and may
// overlap dst nowhere else. dst may be untrusted memory that another
// party writes during the seal: the nonce comes from enclave memory,
// on the stack or in Scratch, and is written to dst last, and the MAC
// is never computed from bytes read back from dst (the kernel only
// stores to it; the stdlib path stages where its GCM would not).
// Every other Seal* builds its frame through SealInto.
func (e *Engine) SealInto(dst, plain, aad []byte) error {
	n := len(plain)
	if len(dst) != SealedLen(n) {
		return fmt.Errorf("engine: %d-byte frame for %d plaintext bytes", len(dst), n)
	}
	if inexactOverlap(dst[IVSize:], plain) {
		return errOverlap
	}
	if e.encl != nil {
		e.encl.Touch(n + SealedLen(n))
	}
	mSealOps.Inc()
	mSealBytes.Add(float64(n))
	iv, err := e.readIV()
	if err != nil {
		return err
	}
	if e.kern != nil {
		e.kern.seal(dst[IVSize:], plain, aad, &iv)
		*(*[IVSize]byte)(dst) = iv
		return nil
	}
	sc := e.AcquireScratch()
	defer e.ReleaseScratch(sc)
	sc.iv = iv
	out := dst[IVSize:]
	if !sealInPlace {
		out = sc.SealedBuf(len(out))
	}
	e.aead.Seal(out[:0], sc.iv[:], plain, aad)
	if !sealInPlace {
		copy(dst[IVSize:], out)
	}
	*(*[IVSize]byte)(dst) = sc.iv
	return nil
}

// OpenAAD authenticates a frame produced by SealInto under the same aad
// and decrypts it straight into dst, which must be exactly as long as
// the plaintext; any other aad fails with ErrAuth. dst may be exactly
// the frame's ciphertext area (sealed[IVSize:][:len(dst)]). sealed may
// be memory another party writes during the open: the kernel loads
// each byte of it once, and the stdlib path, whose GCM loads the
// ciphertext twice, opens a copy staged in pooled Scratch. A sealed
// buffer of the wrong length for dst is rejected before dst is written;
// on ErrAuth dst has been zeroed, so callers must treat dst as garbage
// after any error.
func (e *Engine) OpenAAD(dst, sealed, aad []byte) error {
	n, err := PlainLen(len(sealed))
	if err != nil {
		return err
	}
	if n != len(dst) {
		return fmt.Errorf("engine: sealed buffer holds %d plaintext bytes for a %d-byte destination", n, len(dst))
	}
	if inexactOverlap(dst, sealed[IVSize:]) {
		return errOverlap
	}
	if e.encl != nil {
		e.encl.Touch(2*len(sealed) - Overhead)
	}
	mOpenOps.Inc()
	mOpenBytes.Add(float64(len(sealed)))
	if e.kern != nil {
		iv := *(*[IVSize]byte)(sealed)
		want := *(*[TagSize]byte)(sealed[IVSize+n:])
		got := e.kern.open(dst, sealed[IVSize:IVSize+n], aad, &iv)
		if subtle.ConstantTimeCompare(got[:], want[:]) != 1 {
			clear(dst)
			return ErrAuth
		}
		return nil
	}
	sc := e.AcquireScratch()
	defer e.ReleaseScratch(sc)
	staged := sc.SealedBuf(len(sealed))
	copy(staged, sealed)
	if _, err := e.aead.Open(dst[:0], staged[:IVSize], staged[IVSize:], aad); err != nil {
		return ErrAuth
	}
	return nil
}

// SealFloats encrypts a float32 vector (model weights/biases) in
// little-endian IEEE-754 encoding.
func (e *Engine) SealFloats(v []float32) ([]byte, error) {
	return e.Seal(FloatsToBytes(v))
}

// OpenFloats decrypts a buffer produced by SealFloats.
func (e *Engine) OpenFloats(sealed []byte) ([]float32, error) {
	pt, err := e.Open(sealed)
	if err != nil {
		return nil, err
	}
	return BytesToFloats(pt)
}

// AcquireScratch returns a staging buffer for the concurrent
// seal/open mode, recycled through an internal pool.
func (e *Engine) AcquireScratch() *Scratch {
	if s, ok := e.pool.Get().(*Scratch); ok {
		return s
	}
	return &Scratch{}
}

// ReleaseScratch returns a Scratch to the pool. Buffers previously
// returned by SealFloatsWith on it become invalid.
func (e *Engine) ReleaseScratch(s *Scratch) {
	if s != nil {
		e.pool.Put(s)
	}
}

// floatBytes views v's memory as bytes: on a little-endian host this IS
// the little-endian IEEE-754 wire encoding, so sealing from it and
// opening into it needs no conversion pass and no staging copy.
func floatBytes(v []float32) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(v))), 4*len(v))
}

// SealFloatsWith is SealFloats staged through the caller's Scratch
// instead of a fresh buffer: safe for any number of goroutines each
// holding its own Scratch. The returned slice aliases sc and is valid
// until sc's next use or release.
func (e *Engine) SealFloatsWith(sc *Scratch, v []float32) ([]byte, error) {
	return e.SealFloatsAAD(sc, v, nil)
}

// SealFloatsAAD is SealFloatsInto sc's staging area.
func (e *Engine) SealFloatsAAD(sc *Scratch, v []float32, aad []byte) ([]byte, error) {
	out := sc.SealedBuf(SealedLen(4 * len(v)))
	if err := e.SealFloatsInto(out, v, aad); err != nil {
		return nil, err
	}
	return out, nil
}

// SealFloatsInto is SealInto over v's little-endian encoding. On a
// little-endian host that is v's own memory; on a big-endian host the
// floats are first encoded into pooled Scratch, never into dst, which
// may be untrusted memory.
func (e *Engine) SealFloatsInto(dst []byte, v []float32, aad []byte) error {
	plain := floatBytes(v)
	if !hostLittleEndian {
		sc := e.AcquireScratch()
		defer e.ReleaseScratch(sc)
		plain = grow(&sc.plain, len(plain))
		encodeLE(plain, v)
	}
	return e.SealInto(dst, plain, aad)
}

// OpenFloatsWith opens sealed into dst without allocating, from any
// number of goroutines. The Scratch is not used by the open
// itself; callers pass the one whose SealedBuf holds sealed.
func (e *Engine) OpenFloatsWith(_ *Scratch, dst []float32, sealed []byte) error {
	return e.OpenFloatsAAD(dst, sealed, nil)
}

// OpenFloatsAAD is OpenAAD into dst's little-endian encoding, with the
// same length and dst-on-failure contract: it decrypts straight into
// dst's memory and, on a big-endian host, decodes it in place.
func (e *Engine) OpenFloatsAAD(dst []float32, sealed, aad []byte) error {
	plain := floatBytes(dst)
	if err := e.OpenAAD(plain, sealed, aad); err != nil {
		return err
	}
	if !hostLittleEndian {
		decodeLE(dst, plain)
	}
	return nil
}

// encodeLE writes v into dst (len 4*len(v)) little-endian, one float at
// a time: the portable reference encoding.
func encodeLE(dst []byte, v []float32) {
	for i, f := range v {
		binary.LittleEndian.PutUint32(dst[4*i:], math.Float32bits(f))
	}
}

// decodeLE is the inverse of encodeLE; src may alias dst's own memory.
func decodeLE(dst []float32, src []byte) {
	for i := range dst {
		dst[i] = math.Float32frombits(binary.LittleEndian.Uint32(src[4*i:]))
	}
}

// FloatsToBytes encodes a float32 vector little-endian.
func FloatsToBytes(v []float32) []byte {
	out := make([]byte, 4*len(v))
	encodeLE(out, v)
	return out
}

// BytesToFloats decodes a little-endian float32 vector.
func BytesToFloats(b []byte) ([]float32, error) {
	if len(b)%4 != 0 {
		return nil, fmt.Errorf("engine: float buffer length %d not a multiple of 4", len(b))
	}
	out := make([]float32, len(b)/4)
	decodeLE(out, b)
	return out, nil
}

// DecodeFloats decodes a little-endian float32 vector into dst without
// allocating — the plaintext twin of OpenFloatsWith (one memmove on a
// little-endian host).
func DecodeFloats(dst []float32, src []byte) error {
	if len(src) != 4*len(dst) {
		return fmt.Errorf("engine: %d bytes for %d floats", len(src), len(dst))
	}
	if hostLittleEndian {
		copy(floatBytes(dst), src)
	} else {
		decodeLE(dst, src)
	}
	return nil
}

// GenerateKey produces a fresh 128-bit data key from rng (in Plinius,
// the enclave RNG, when training data arrives unencrypted).
func GenerateKey(rng io.Reader) ([]byte, error) {
	key := make([]byte, KeySize)
	if _, err := io.ReadFull(rng, key); err != nil {
		return nil, fmt.Errorf("engine keygen: %w", err)
	}
	return key, nil
}
