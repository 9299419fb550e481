//go:build amd64 && !purego

package engine

import (
	"crypto/cipher"
	"encoding/binary"

	"plinius/internal/cpuid"
)

// haveKernel reports that the CPU runs gcm_amd64.s, the AES-128-GCM
// kernel on 512-bit VAES and VPCLMULQDQ; probed once at init.
var haveKernel = cpuid.VAES512()

// sealInPlace reports that the stdlib path, on a CPU without the
// kernel, may seal straight into dst: the amd64 AES-GCM assembly
// (gcmAesEnc) only stores to its output, folding the tag from
// ciphertext it holds in registers. Every SGX CPU has the AES-NI and
// PCLMULQDQ instructions that path needs.
const sealInPlace = true

// gcmKey is the kernel's key state, computed once in New.
type gcmKey struct {
	rk [11][16]byte // AES-128 encryption round keys
	// h holds H^16, H^15, ..., H^1 in ghashForm, then zero entries: a
	// tail of n < 16 blocks reads its powers from h[16-n:], 64 bytes a
	// vector, four vectors.
	h [32][16]byte
}

//go:noescape
func gcmVAES(k *gcmKey, j0 *[16]byte, dst, src, aad []byte, tag *[16]byte, open bool)

//go:noescape
func expandKey128(key *[16]byte, rk *[11][16]byte)

// newGCMKey returns the kernel's state for key, whose cipher is block,
// or nil on a CPU without the kernel.
func newGCMKey(key []byte, block cipher.Block) *gcmKey {
	if !haveKernel {
		return nil
	}
	k := new(gcmKey)
	expandKey128((*[16]byte)(key), &k.rk)
	var h [16]byte
	block.Encrypt(h[:], h[:])
	hv := [2]uint64{binary.BigEndian.Uint64(h[:8]), binary.BigEndian.Uint64(h[8:])}
	p := hv
	for i := 15; i >= 0; i-- {
		k.h[i] = ghashForm(p)
		p = gfMul(p, hv)
	}
	return k
}

// gfMul multiplies two elements of GCM's field GF(2^128), each given
// as its 16 bytes read big-endian into two words (NIST SP 800-38D,
// Algorithm 1). It runs in New only, 16 times.
func gfMul(x, y [2]uint64) [2]uint64 {
	var z [2]uint64
	v := y
	for i := 0; i < 128; i++ {
		if x[i>>6]>>(63-i&63)&1 == 1 {
			z[0] ^= v[0]
			z[1] ^= v[1]
		}
		lsb := v[1] & 1
		v[1] = v[1]>>1 | v[0]<<63
		v[0] >>= 1
		if lsb == 1 {
			v[0] ^= 0xe1 << 56
		}
	}
	return z
}

// ghashForm is a field element as the kernel's GHASH multiplies by it:
// byte-swapped into a register (the big-endian words become the high
// and low halves) and multiplied by x there, a left shift with the
// carry reduced by the polynomial 0xc2000000000000000000000000000001.
func ghashForm(e [2]uint64) (out [16]byte) {
	hi, lo := e[0], e[1]
	carry := hi >> 63
	hi, lo = hi<<1|lo>>63, lo<<1
	if carry == 1 {
		hi ^= 0xc2 << 56
		lo ^= 1
	}
	binary.LittleEndian.PutUint64(out[:8], lo)
	binary.LittleEndian.PutUint64(out[8:], hi)
	return out
}

// seal encrypts plain into out[:len(plain)] and writes the tag to
// out[len(plain):], under nonce iv and with aad authenticated. It only
// stores to out; plain may be exactly out[:len(plain)].
func (k *gcmKey) seal(out, plain, aad []byte, iv *[IVSize]byte) {
	var j0 [16]byte
	copy(j0[:], iv[:])
	j0[15] = 1
	n := len(plain)
	gcmVAES(k, &j0, out[:n], plain, aad, (*[16]byte)(out[n:]), false)
}

// open decrypts ct into dst and returns the tag computed over ct and
// aad; the caller compares it. Each byte of ct is loaded once, so ct
// may be memory another party writes meanwhile; dst may be exactly ct.
func (k *gcmKey) open(dst, ct, aad []byte, iv *[IVSize]byte) (tag [TagSize]byte) {
	var j0 [16]byte
	copy(j0[:], iv[:])
	j0[15] = 1
	gcmVAES(k, &j0, dst, ct, aad, &tag, true)
	return tag
}
