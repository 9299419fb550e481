package enclave

import (
	"crypto/aes"
	"crypto/cipher"
	"errors"
	"fmt"
)

// Alloc registers n bytes of enclave heap, as Reserve does, and returns
// a zeroed buffer standing for the EPC-backed memory.
func (e *Enclave) Alloc(n int) ([]byte, error) {
	if err := e.claim(n); err != nil {
		return nil, err
	}
	return make([]byte, n), nil
}

// OverEPC reports whether this enclave's private working set alone
// exceeds the host's usable-EPC budget. The paging knee itself is
// host-global (Host.OverEPC), so an enclave can page with OverEPC false
// when co-located enclaves overcommit the host.
func (e *Enclave) OverEPC() bool { return e.Footprint() > e.host.UsableEPC() }

// Kills returns how many times the host has been killed.
func (h *Host) Kills() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.kills
}

// Enclaves returns the number of live enclaves on the host.
func (h *Host) Enclaves() int { return h.Stats().Enclaves }

// SGX-style sealing: encrypt data under the enclave's seal key so it
// can be stored outside the enclave and recovered only by the same
// enclave (paper §IV: "the encryption key ... can be securely sealed by
// the enclave for future use").

// ErrSealCorrupt is returned when unsealing fails authentication.
var ErrSealCorrupt = errors.New("enclave: sealed blob failed authentication")

const sealIVLen = 12

// Seal encrypts plaintext under the enclave's seal key using AES-GCM.
// The output layout is IV(12) || ciphertext || tag(16).
func (e *Enclave) Seal(plaintext []byte) ([]byte, error) {
	gcm, err := e.sealGCM()
	if err != nil {
		return nil, err
	}
	iv := make([]byte, sealIVLen)
	e.ReadRand(iv)
	out := make([]byte, 0, sealIVLen+len(plaintext)+gcm.Overhead())
	out = append(out, iv...)
	return gcm.Seal(out, iv, plaintext, nil), nil
}

// Unseal decrypts a blob produced by Seal on the same enclave.
func (e *Enclave) Unseal(blob []byte) ([]byte, error) {
	gcm, err := e.sealGCM()
	if err != nil {
		return nil, err
	}
	if len(blob) < sealIVLen+gcm.Overhead() {
		return nil, ErrSealCorrupt
	}
	pt, err := gcm.Open(nil, blob[:sealIVLen], blob[sealIVLen:], nil)
	if err != nil {
		return nil, ErrSealCorrupt
	}
	return pt, nil
}

func (e *Enclave) sealGCM() (cipher.AEAD, error) {
	block, err := aes.NewCipher(e.sealKey[:])
	if err != nil {
		return nil, fmt.Errorf("seal cipher: %w", err)
	}
	return cipher.NewGCM(block)
}
