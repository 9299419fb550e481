package fleet

import (
	"bytes"
	"crypto/rand"
	"fmt"
	"sync/atomic"
	"time"

	"plinius/internal/chaos"
	"plinius/internal/enclave"
	"plinius/internal/engine"
	"plinius/internal/obs"
)

// Channel is an attested inter-host link carrying the sealed
// activation hand-off between two shard stages placed on different
// hosts. The payload crossing it is exactly the sealed blob
// core.ShardGroup already passes between co-located stages, so the
// wire adds no new trust: activations leave the source enclave only
// AES-GCM sealed, and the channel merely charges the transfer's
// modeled cost and accounts its traffic.
//
// Establishment mirrors core's serving-enclave key provisioning (Fig. 5 steps
// 2-3), run once per endpoint: both enclaves are attested, a fleet
// owner verifies each quote against the Plinius measurement, and a
// fresh transport key is wrapped to each attestation channel and
// unwrapped inside the respective enclave. Both endpoints holding the
// same transport key is the channel's liveness proof; the key is
// retained only to witness that the provisioning ran, since sealing
// itself stays with the shard stages' data key.
type Channel struct {
	From, To int // shard stage indices
	src, dst *enclave.Enclave

	latency   time.Duration
	bandwidth float64 // bytes per second; <= 0 means unbounded

	// Fault handling: a Carry that the injector drops is re-sent after
	// exponential backoff, up to defaultHandoffRetries re-sends. Sealed
	// per-batch payloads make the re-send idempotent — a duplicate
	// delivery decrypts to the same activations — so retry is always
	// safe.
	faults *chaos.Injector

	key []byte // provisioned transport key (both endpoints verified equal)

	transfers atomic.Uint64
	bytes     atomic.Uint64

	mBytes   *obs.Counter
	mSeconds *obs.Counter
	mRetries *obs.Counter
}

// chanConfig carries the per-channel wire model and fault injector
// from the fleet to newChannel.
type chanConfig struct {
	latency   time.Duration
	bandwidth float64
	faults    *chaos.Injector
	mBytes    *obs.Counter
	mSeconds  *obs.Counter
	mRetries  *obs.Counter
}

// newChannel attests both endpoint enclaves and provisions a shared
// transport key across them.
func newChannel(from, to int, src, dst *enclave.Enclave, cfg chanConfig) (*Channel, error) {
	owner, err := enclave.NewOwner(rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("fleet: channel owner: %w", err)
	}
	transport, err := engine.GenerateKey(rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("fleet: channel transport key: %w", err)
	}
	provision := func(encl *enclave.Enclave, end string) ([]byte, error) {
		sess, quote, err := encl.BeginAttestation()
		if err != nil {
			return nil, fmt.Errorf("fleet: channel %s attestation: %w", end, err)
		}
		ownerChannel, err := owner.VerifyQuote(quote, enclave.PliniusMeasurement())
		if err != nil {
			return nil, fmt.Errorf("fleet: channel %s quote: %w", end, err)
		}
		wrapped, err := engine.WrapKey(ownerChannel, transport, rand.Reader)
		if err != nil {
			return nil, fmt.Errorf("fleet: channel %s wrap: %w", end, err)
		}
		var key []byte
		err = encl.Ecall(func() error {
			ch, err := sess.CompleteAttestation(owner.PublicKey())
			if err != nil {
				return err
			}
			key, err = engine.UnwrapKey(ch, wrapped)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("fleet: channel %s provisioning: %w", end, err)
		}
		return key, nil
	}
	kSrc, err := provision(src, "source")
	if err != nil {
		return nil, err
	}
	kDst, err := provision(dst, "destination")
	if err != nil {
		return nil, err
	}
	if !bytes.Equal(kSrc, kDst) {
		return nil, fmt.Errorf("fleet: channel %d->%d endpoints hold different transport keys", from, to)
	}
	return &Channel{
		From: from, To: to,
		src: src, dst: dst,
		latency: cfg.latency, bandwidth: cfg.bandwidth,
		faults: cfg.faults,
		key:    kSrc,
		mBytes: cfg.mBytes, mSeconds: cfg.mSeconds, mRetries: cfg.mRetries,
	}, nil
}

// Carry moves one sealed activation blob across the link, charging the
// modeled wire time (latency plus size over bandwidth) to the
// destination host's clock and accounting the traffic.
//
// An injected drop costs the sender the full wire time (the detection
// wait) plus an exponential backoff from defaultHandoffBackoff, both on
// the modeled clock, then the sealed blob is re-sent; an injected delay
// is simply charged as wire time. After defaultHandoffRetries re-sends
// the Carry fails with ErrHandoffFault, which the fleet treats as
// retryable at the routing layer. A dead endpoint host fails
// immediately with enclave.ErrHostDown: no amount of re-sending reaches
// a machine that is gone, so the fleet must evict and replan instead.
func (c *Channel) Carry(sealed []byte) error {
	const attempts = defaultHandoffRetries + 1
	for attempt := 0; attempt < attempts; attempt++ {
		if c.src.Host().Down() || c.dst.Host().Down() {
			return fmt.Errorf("fleet: channel %d->%d: %w", c.From, c.To, enclave.ErrHostDown)
		}
		d := c.latency
		if c.bandwidth > 0 {
			d += time.Duration(float64(len(sealed)) / c.bandwidth * float64(time.Second))
		}
		dec := c.faults.Next()
		d += dec.Extra
		if dec.Kind == chaos.Drop {
			// Lost. The sender detects the loss after the full wire
			// time, backs off exponentially, and re-sends.
			c.dst.Clock().Advance(d + defaultHandoffBackoff<<attempt)
			if c.mRetries != nil {
				c.mRetries.Inc()
			}
			continue
		}
		copies := 1
		if dec.Kind == chaos.Duplicate {
			// Delivered twice: the wire is charged for both copies; the
			// sealed payload makes the second delivery a no-op for
			// correctness.
			copies = 2
		}
		for i := 0; i < copies; i++ {
			if d > 0 {
				c.dst.Clock().Advance(d)
			}
			c.transfers.Add(1)
			c.bytes.Add(uint64(len(sealed)))
			c.mBytes.AddUint(uint64(len(sealed)))
			c.mSeconds.Add(d.Seconds())
		}
		return nil
	}
	return fmt.Errorf("fleet: channel %d->%d: %w after %d attempts", c.From, c.To, ErrHandoffFault, attempts)
}

// Transfers returns the number of hand-offs carried.
func (c *Channel) Transfers() uint64 { return c.transfers.Load() }

// Bytes returns the total sealed bytes carried.
func (c *Channel) Bytes() uint64 { return c.bytes.Load() }
