// Package engine implements the Plinius encryption engine (paper §IV):
// in-enclave AES-GCM-128 encryption and decryption of model parameters
// mirrored to persistent memory and of training-data batches read from
// PM.
//
// Buffer layout matches the paper: every sealed buffer carries a random
// 12-byte initialisation vector and a 16-byte message authentication
// code, 28 bytes of metadata per encrypted parameter buffer
// (IV ‖ ciphertext ‖ MAC). Keys are 128-bit and are provisioned via the
// remote-attestation secure channel (WrapKey/UnwrapKey) or generated in
// the enclave.
package engine

import (
	"crypto/aes"
	"crypto/cipher"
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

// Sizes of the AES-GCM-128 scheme used throughout Plinius.
const (
	KeySize  = 16
	IVSize   = 12
	TagSize  = 16
	Overhead = IVSize + TagSize // 28 B per sealed buffer (§VI CPU/memory overhead)
)

// Errors returned by the engine.
var (
	ErrAuth     = errors.New("engine: authentication failed")
	ErrTooShort = errors.New("engine: sealed buffer too short")
	ErrBadKey   = errors.New("engine: key must be 16 bytes")
)

// Engine seals and opens buffers under one 128-bit data key.
//
// SealFloatsScratch reuses an internal buffer to avoid garbage on the
// hot mirroring path; like the Plinius training loop itself (§VI: "a
// fairly intensive single-threaded application"), it is not safe for
// concurrent use. Everything else is: Seal/Open allocate their output,
// OpenFloatsInto/OpenFloatsWith decrypt into the caller's floats, and
// SealFloatsWith stages through the caller's Scratch (AcquireScratch)
// while the AEAD and the IV source are shared safely — the concurrent
// mode the parallel mirroring path fans out over.
type Engine struct {
	aead cipher.AEAD
	rng  io.Reader
	encl *enclave.Enclave

	// rngMu serializes IV reads: the engine's IV source (the enclave
	// RNG or an injected reader) is not required to be concurrent-safe.
	rngMu sync.Mutex

	// scratch backs the single-goroutine SealFloatsScratch.
	scratch Scratch

	// pool recycles Scratch buffers for the concurrent seal/open mode.
	pool sync.Pool
}

// Scratch is a per-goroutine sealed-side staging buffer for the
// concurrent seal/open mode. Obtain one with AcquireScratch, use it
// from a single goroutine, and return it with ReleaseScratch once the
// bytes produced into it are no longer needed. There is no plaintext
// side: floats are sealed from, and opened into, their own memory.
type Scratch struct {
	sealed []byte
}

// SealedBuf returns a length-n buffer backed by the scratch's staging
// area: where SealFloatsWith builds its output, and where callers load
// sealed bytes they will immediately OpenFloatsWith (which decrypts
// straight into its destination, so the two never alias). This keeps
// hot restore loops allocation-free.
func (s *Scratch) SealedBuf(n int) []byte {
	if cap(s.sealed) < n {
		s.sealed = make([]byte, n)
	}
	return s.sealed[:n]
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
	e := &Engine{aead: aead}
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

// readIV fills dst with a fresh IV under the RNG lock, so concurrent
// sealers can share one (possibly non-thread-safe) IV source.
func (e *Engine) readIV(dst []byte) error {
	e.rngMu.Lock()
	_, err := io.ReadFull(e.rng, dst)
	e.rngMu.Unlock()
	if err != nil {
		return fmt.Errorf("engine iv: %w", err)
	}
	return nil
}

// Seal encrypts plaintext into IV ‖ ciphertext ‖ MAC with a fresh random
// IV, charging EPC paging for the touched bytes when enclave-bound.
func (e *Engine) Seal(plaintext []byte) ([]byte, error) {
	out := make([]byte, IVSize, SealedLen(len(plaintext)))
	if err := e.readIV(out[:IVSize]); err != nil {
		return nil, err
	}
	if e.encl != nil {
		e.encl.Touch(len(plaintext) + SealedLen(len(plaintext)))
	}
	mSealOps.Inc()
	mSealBytes.Add(float64(len(plaintext)))
	return e.aead.Seal(out, out[:IVSize], plaintext, nil), nil
}

// Open authenticates and decrypts a buffer produced by Seal.
func (e *Engine) Open(sealed []byte) ([]byte, error) {
	if len(sealed) < Overhead {
		return nil, fmt.Errorf("%w: %d bytes", ErrTooShort, len(sealed))
	}
	if e.encl != nil {
		e.encl.Touch(2*len(sealed) - Overhead)
	}
	mOpenOps.Inc()
	mOpenBytes.Add(float64(len(sealed)))
	pt, err := e.aead.Open(nil, sealed[:IVSize], sealed[IVSize:], nil)
	if err != nil {
		return nil, ErrAuth
	}
	return pt, nil
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

// SealFloatsScratch is SealFloats without allocation: the returned
// slice aliases an internal buffer and is only valid until the next
// *Scratch call. Single-goroutine use only.
func (e *Engine) SealFloatsScratch(v []float32) ([]byte, error) {
	return e.SealFloatsWith(&e.scratch, v)
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

// SealFloatsWith is SealFloatsScratch staged through the caller's
// Scratch instead of the engine's internal buffers: safe for any
// number of goroutines each holding its own Scratch. The returned
// slice aliases sc and is valid until sc's next use or release.
//
// AES-GCM reads the plaintext straight from v's memory. On a
// big-endian host the floats are first encoded into the ciphertext
// area and sealed in place.
func (e *Engine) SealFloatsWith(sc *Scratch, v []float32) ([]byte, error) {
	n := 4 * len(v)
	out := sc.SealedBuf(SealedLen(n))
	if err := e.readIV(out[:IVSize]); err != nil {
		return nil, err
	}
	if e.encl != nil {
		e.encl.Touch(n + SealedLen(n))
	}
	mSealOps.Inc()
	mSealBytes.Add(float64(n))
	plain := floatBytes(v)
	if !hostLittleEndian {
		plain = out[IVSize : IVSize+n]
		encodeLE(plain, v)
	}
	return e.aead.Seal(out[:IVSize], out[:IVSize], plain, nil), nil
}

// OpenFloatsWith opens sealed into dst without allocating or staging,
// from any number of goroutines. The Scratch is not used by the open
// itself; callers pass the one whose SealedBuf holds sealed.
//
// AES-GCM authenticates and decrypts straight into dst's memory. A
// sealed buffer of the wrong length for dst is rejected before dst is
// written; on ErrAuth dst has been CLOBBERED (Go's GCM zeroes its
// output on a failed tag check), so callers must treat dst as garbage
// after any error.
func (e *Engine) OpenFloatsWith(_ *Scratch, dst []float32, sealed []byte) error {
	if len(sealed) < Overhead {
		return fmt.Errorf("%w: %d bytes", ErrTooShort, len(sealed))
	}
	if len(sealed)-Overhead != 4*len(dst) {
		return fmt.Errorf("engine: sealed buffer holds %d plaintext bytes for %d floats", len(sealed)-Overhead, len(dst))
	}
	if e.encl != nil {
		e.encl.Touch(2*len(sealed) - Overhead)
	}
	mOpenOps.Inc()
	mOpenBytes.Add(float64(len(sealed)))
	plain := floatBytes(dst)
	if _, err := e.aead.Open(plain[:0], sealed[:IVSize], sealed[IVSize:], nil); err != nil {
		return ErrAuth
	}
	if !hostLittleEndian {
		decodeLE(dst, plain)
	}
	return nil
}

// OpenFloatsInto is OpenFloatsWith for callers that hold no Scratch;
// the same dst-on-failure contract applies.
func (e *Engine) OpenFloatsInto(dst []float32, sealed []byte) error {
	return e.OpenFloatsWith(nil, dst, sealed)
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

// WrapKey encrypts a 128-bit data key under the remote-attestation
// channel key for provisioning to the enclave (Fig. 5, step 3).
func WrapKey(channelKey [32]byte, dataKey []byte, rng io.Reader) ([]byte, error) {
	if len(dataKey) != KeySize {
		return nil, fmt.Errorf("%w: got %d", ErrBadKey, len(dataKey))
	}
	block, err := aes.NewCipher(channelKey[:])
	if err != nil {
		return nil, fmt.Errorf("wrap cipher: %w", err)
	}
	aead, err := cipher.NewGCM(block)
	if err != nil {
		return nil, fmt.Errorf("wrap gcm: %w", err)
	}
	iv := make([]byte, IVSize)
	if _, err := io.ReadFull(rng, iv); err != nil {
		return nil, fmt.Errorf("wrap iv: %w", err)
	}
	out := make([]byte, 0, IVSize+KeySize+TagSize)
	out = append(out, iv...)
	return aead.Seal(out, iv, dataKey, nil), nil
}

// UnwrapKey recovers a data key wrapped with WrapKey; it runs inside the
// enclave after attestation.
func UnwrapKey(channelKey [32]byte, wrapped []byte) ([]byte, error) {
	if len(wrapped) < Overhead {
		return nil, fmt.Errorf("%w: %d bytes", ErrTooShort, len(wrapped))
	}
	block, err := aes.NewCipher(channelKey[:])
	if err != nil {
		return nil, fmt.Errorf("unwrap cipher: %w", err)
	}
	aead, err := cipher.NewGCM(block)
	if err != nil {
		return nil, fmt.Errorf("unwrap gcm: %w", err)
	}
	key, err := aead.Open(nil, wrapped[:IVSize], wrapped[IVSize:], nil)
	if err != nil {
		return nil, ErrAuth
	}
	if len(key) != KeySize {
		return nil, fmt.Errorf("%w: unwrapped %d bytes", ErrBadKey, len(key))
	}
	return key, nil
}
