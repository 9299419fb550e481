//go:build !amd64 || purego

package engine

import "crypto/cipher"

// haveKernel is false where no AES-GCM kernel is built: every frame
// takes the stdlib path.
const haveKernel = false

// sealInPlace reports that the stdlib path must stage the frame: Go's
// generic AES-GCM computes the tag over ciphertext it reads back from
// its output, so a party writing an untrusted dst mid-seal could get a
// valid tag over ciphertext of its choosing.
const sealInPlace = false

// gcmKey is empty without the kernel; New leaves Engine.kern nil.
type gcmKey struct{}

func newGCMKey([]byte, cipher.Block) *gcmKey { return nil }

func (*gcmKey) seal(out, plain, aad []byte, iv *[IVSize]byte) {}

func (*gcmKey) open(dst, ct, aad []byte, iv *[IVSize]byte) (tag [TagSize]byte) { return tag }
