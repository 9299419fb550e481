package enclave

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"crypto/ecdh"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
)

// Remote attestation and secure-channel establishment (paper Fig. 5,
// steps 2-3): the model/dataset owner verifies the enclave's identity,
// derives a shared secret via ECDH, and provisions the data-encryption
// key over the resulting channel. The Intel attestation service is
// simulated by an HMAC keyed with a platform key that both the (honest)
// platform and the verifier know; the untrusted host between them never
// sees key material. ProvisionKey runs the whole flow; it is the only
// way a data key enters an enclave.

// Measurement is the enclave identity (MRENCLAVE analogue): a SHA-256
// hash over the trusted code identity.
type Measurement [32]byte

// PliniusMeasurement returns the measurement of the Plinius trusted
// runtime. In real SGX this is computed by the CPU at enclave build;
// here it is a constant hash over the trusted-component names.
func PliniusMeasurement() Measurement {
	return Measurement(sha256.Sum256([]byte("plinius/lib-sgx-darknet+lib-sgx-romulus+mirroring")))
}

// Quote is the attestation evidence the enclave produces: its measurement
// and ephemeral ECDH public key, authenticated with the platform key.
type Quote struct {
	Measurement Measurement
	PublicKey   []byte
	MAC         [32]byte
}

// Attestation errors.
var (
	ErrQuoteForged   = errors.New("enclave: quote MAC verification failed")
	ErrWrongEnclave  = errors.New("enclave: measurement mismatch")
	ErrNoAttestation = errors.New("enclave: no attestation session")
	errKeyUnwrap     = errors.New("enclave: wrapped key failed authentication")
)

// platformKey stands in for the provisioning key shared between the SGX
// platform and the attestation service. A real deployment derives it in
// hardware; the simulation fixes it so verifier and enclave agree.
var platformKey = sha256.Sum256([]byte("plinius-simulated-sgx-platform-provisioning-key"))

func quoteMAC(m Measurement, pub []byte) [32]byte {
	h := hmac.New(sha256.New, platformKey[:])
	h.Write(m[:])
	h.Write(pub)
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}

// AttestationSession holds the enclave side of an in-progress remote
// attestation.
type AttestationSession struct {
	priv *ecdh.PrivateKey
}

// BeginAttestation generates the enclave's ephemeral key pair and quote.
func (e *Enclave) BeginAttestation() (*AttestationSession, Quote, error) {
	seed := make([]byte, 64)
	e.ReadRand(seed)
	priv, err := ecdh.P256().GenerateKey(bytes.NewReader(seed))
	if err != nil {
		return nil, Quote{}, fmt.Errorf("attestation keygen: %w", err)
	}
	pub := priv.PublicKey().Bytes()
	q := Quote{
		Measurement: PliniusMeasurement(),
		PublicKey:   pub,
		MAC:         quoteMAC(PliniusMeasurement(), pub),
	}
	return &AttestationSession{priv: priv}, q, nil
}

// CompleteAttestation derives the channel key from the owner's public key.
func (s *AttestationSession) CompleteAttestation(ownerPub []byte) ([32]byte, error) {
	var key [32]byte
	if s == nil || s.priv == nil {
		return key, ErrNoAttestation
	}
	pub, err := ecdh.P256().NewPublicKey(ownerPub)
	if err != nil {
		return key, fmt.Errorf("owner public key: %w", err)
	}
	secret, err := s.priv.ECDH(pub)
	if err != nil {
		return key, fmt.Errorf("ecdh: %w", err)
	}
	return deriveChannelKey(secret), nil
}

// Owner is the model/dataset owner's side of attestation (runs on the
// owner's trusted machine, not on the untrusted cloud host).
type Owner struct {
	priv *ecdh.PrivateKey
}

// NewOwner creates an owner with an ephemeral ECDH key from rng.
func NewOwner(rng io.Reader) (*Owner, error) {
	priv, err := ecdh.P256().GenerateKey(rng)
	if err != nil {
		return nil, fmt.Errorf("owner keygen: %w", err)
	}
	return &Owner{priv: priv}, nil
}

// PublicKey returns the owner's ECDH public key bytes.
func (o *Owner) PublicKey() []byte { return o.priv.PublicKey().Bytes() }

// VerifyQuote checks the quote's authenticity and enclave identity, then
// derives the shared channel key. It returns ErrQuoteForged for a bad MAC
// and ErrWrongEnclave for an unexpected measurement.
func (o *Owner) VerifyQuote(q Quote, want Measurement) ([32]byte, error) {
	var key [32]byte
	expect := quoteMAC(q.Measurement, q.PublicKey)
	if !hmac.Equal(expect[:], q.MAC[:]) {
		return key, ErrQuoteForged
	}
	if q.Measurement != want {
		return key, ErrWrongEnclave
	}
	pub, err := ecdh.P256().NewPublicKey(q.PublicKey)
	if err != nil {
		return key, fmt.Errorf("enclave public key: %w", err)
	}
	secret, err := o.priv.ECDH(pub)
	if err != nil {
		return key, fmt.Errorf("ecdh: %w", err)
	}
	return deriveChannelKey(secret), nil
}

// deriveChannelKey applies a KDF (SHA-256 with a context label) to the
// raw ECDH secret.
func deriveChannelKey(secret []byte) [32]byte {
	h := sha256.New()
	h.Write([]byte("plinius-ra-channel-v1"))
	h.Write(secret)
	var key [32]byte
	copy(key[:], h.Sum(nil))
	return key
}

// ProvisionKey delivers dataKey into the enclave (Fig. 5 steps 2-3):
// the enclave quotes its measurement and an ephemeral ECDH key, an
// owner verifies the quote against PliniusMeasurement and wraps dataKey
// under the attested channel key, and the enclave derives the same
// channel key and unwraps, in one ecall. It returns the key as the
// enclave holds it.
func (e *Enclave) ProvisionKey(dataKey []byte) ([]byte, error) {
	sess, quote, err := e.BeginAttestation()
	if err != nil {
		return nil, err
	}
	owner, err := NewOwner(rand.Reader)
	if err != nil {
		return nil, err
	}
	channel, err := owner.VerifyQuote(quote, PliniusMeasurement())
	if err != nil {
		return nil, err
	}
	wrapped, err := wrapKey(channel, dataKey)
	if err != nil {
		return nil, err
	}
	var key []byte
	err = e.Ecall(func() error {
		channel, err := sess.CompleteAttestation(owner.PublicKey())
		if err != nil {
			return err
		}
		key, err = unwrapKey(channel, wrapped)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("enclave: key provisioning: %w", err)
	}
	return key, nil
}

// channelAEAD is AES-256-GCM under an attestation channel key.
func channelAEAD(channel [32]byte) cipher.AEAD {
	block, err := aes.NewCipher(channel[:])
	if err != nil {
		panic(err) // a 32-byte key is always valid
	}
	aead, err := cipher.NewGCM(block)
	if err != nil {
		panic(err)
	}
	return aead
}

// wrapKey seals dataKey under the channel key, owner side: a random
// nonce, then the ciphertext and tag.
func wrapKey(channel [32]byte, dataKey []byte) ([]byte, error) {
	aead := channelAEAD(channel)
	nonce := make([]byte, aead.NonceSize(), aead.NonceSize()+len(dataKey)+aead.Overhead())
	if _, err := rand.Read(nonce); err != nil {
		return nil, fmt.Errorf("enclave: wrap nonce: %w", err)
	}
	return aead.Seal(nonce, nonce, dataKey, nil), nil
}

// unwrapKey opens a key wrapKey sealed, enclave side.
func unwrapKey(channel [32]byte, wrapped []byte) ([]byte, error) {
	aead := channelAEAD(channel)
	if len(wrapped) < aead.NonceSize()+aead.Overhead() {
		return nil, fmt.Errorf("%w: %d bytes", errKeyUnwrap, len(wrapped))
	}
	key, err := aead.Open(nil, wrapped[:aead.NonceSize()], wrapped[aead.NonceSize():], nil)
	if err != nil {
		return nil, errKeyUnwrap
	}
	return key, nil
}
