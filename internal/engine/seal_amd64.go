//go:build amd64 && !purego

package engine

// sealInPlace reports that SealInto may seal straight into dst: the
// amd64 AES-GCM assembly (gcmAesEnc) only stores to its output, folding
// the tag from ciphertext it holds in registers. Every SGX CPU has the
// AES-NI and PCLMULQDQ instructions that path needs.
const sealInPlace = true
