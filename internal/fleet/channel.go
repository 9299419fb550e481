package fleet

import (
	"fmt"
	"sync/atomic"

	"plinius/internal/chaos"
	"plinius/internal/enclave"
	"plinius/internal/obs"
)

// Channel is the inter-host link carrying the sealed activation
// hand-off between two shard stages placed on different hosts. The
// payload crossing it is exactly the sealed blob core.ShardGroup
// already passes between co-located stages, so the wire adds no new
// trust: both endpoints are shard enclaves their group attested and
// provisioned with the data key when it was built, activations leave
// the source enclave only AES-GCM sealed under that key, and the
// channel holds no key of its own. It accounts its traffic, fails fast
// when an endpoint host is down, and charges the modeled cost of
// injected faults.
type Channel struct {
	From, To int // shard stage indices
	src, dst *enclave.Enclave

	// Fault handling: a Carry that the injector drops is re-sent after
	// exponential backoff, up to defaultHandoffRetries re-sends. Sealed
	// per-batch payloads make the re-send idempotent — a duplicate
	// delivery decrypts to the same activations — so retry is always
	// safe.
	faults *chaos.Injector

	transfers atomic.Uint64
	bytes     atomic.Uint64

	mBytes   *obs.Counter
	mSeconds *obs.Counter
	mRetries *obs.Counter
}

// Carry moves one sealed activation blob across the link and accounts
// the traffic. A clean transfer is free on the modeled clock; injected
// faults are charged to the destination host's clock.
//
// An injected drop costs the sender an exponential backoff from
// defaultHandoffBackoff on the modeled clock, then the sealed blob is
// re-sent; an injected delay is charged as wire time. After
// defaultHandoffRetries re-sends the Carry fails with ErrHandoffFault,
// which the fleet treats as retryable at the routing layer. A dead endpoint host fails
// immediately with enclave.ErrHostDown: no amount of re-sending reaches
// a machine that is gone, so the fleet must evict and replan instead.
func (c *Channel) Carry(sealed []byte) error {
	const attempts = defaultHandoffRetries + 1
	for attempt := 0; attempt < attempts; attempt++ {
		if c.src.Host().Down() || c.dst.Host().Down() {
			return fmt.Errorf("fleet: channel %d->%d: %w", c.From, c.To, enclave.ErrHostDown)
		}
		dec := c.faults.Next()
		d := dec.Extra
		if dec.Kind == chaos.Drop {
			// Lost. The sender detects the loss, backs off
			// exponentially, and re-sends.
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
