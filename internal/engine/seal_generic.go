//go:build !amd64 || purego

package engine

// sealInPlace reports that SealInto must stage the frame: Go's generic
// AES-GCM computes the tag over ciphertext it reads back from its
// output, so a party writing an untrusted dst mid-seal could get a
// valid tag over ciphertext of its choosing.
const sealInPlace = false
