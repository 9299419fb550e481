package core

import (
	"crypto/rand"
	"fmt"

	"plinius/internal/engine"
	"plinius/internal/mirror"
)

// Model publication and key rotation: the framework side of the v2
// serving handshake. Publish seals the current enclave parameters into
// an immutable, versioned snapshot in PM (separate from the training
// mirror, which is overwritten every iteration); replicas restore a
// pinned version, so Server.Refresh never races a concurrent
// MirrorOut. RotateKey re-provisions the data key and re-seals all
// persistent state under it.

// pmLiveLocked re-checks, under pmMu, that PM is still attached.
// Crash() nils f.Rom while holding both locks, so a caller that
// checked the crash flag before acquiring pmMu must re-check here —
// otherwise a concurrent Crash between the two acquisitions would
// turn into a nil-pointer panic instead of ErrCrashedDown.
func (f *Framework) pmLiveLocked() error {
	if f.crashed || f.Rom == nil {
		return ErrCrashedDown
	}
	return nil
}

// attachPublication opens (or creates) the publication table. Caller
// holds pmMu.
func (f *Framework) attachPublication() error {
	if f.pub != nil {
		return nil
	}
	if err := f.pmLiveLocked(); err != nil {
		return err
	}
	p, err := mirror.OpenPublication(f.Rom)
	if err != nil {
		return fmt.Errorf("core: open publication: %w", err)
	}
	f.pub = p
	return nil
}

// EnsureModelCurrent restores the enclave model from the PM training
// mirror when the mirror is ahead of the in-enclave state — the case
// after Recover(false) deferred the restore (the enclave then holds
// fresh random weights while PM holds the real model). No-op when the
// enclave is already current or PM holds no mirror.
func (f *Framework) EnsureModelCurrent() error {
	f.modelMu.Lock()
	defer f.modelMu.Unlock()
	if f.crashed {
		return ErrCrashedDown
	}
	f.pmMu.Lock()
	defer f.pmMu.Unlock()
	if f.Mirror == nil {
		if !mirror.Exists(f.Rom) {
			return nil
		}
		// Attaching an existing mirror runs mirror-in, restoring the
		// parameters and iteration counter.
		return f.Enclave.Ecall(f.attachMirror)
	}
	iter, err := f.Mirror.Iteration()
	if err != nil {
		return err
	}
	if iter <= f.Net.Iteration {
		return nil
	}
	return f.Enclave.Ecall(func() error {
		_, err := f.Mirror.MirrorIn(f.Net)
		return err
	})
}

// SetPublishQuantized toggles quantized publication: when on, every
// subsequent Publish (and the snapshot RotateKey publishes) seals an
// int8-quantized variant alongside the fp32 snapshot, restorable by
// int8 replicas and shard groups via Pin.Open at darknet.Int8. The flag is sticky so refresh
// and rotation keep working end-to-end once a deployment serves int8.
func (f *Framework) SetPublishQuantized(on bool) {
	f.pmMu.Lock()
	defer f.pmMu.Unlock()
	f.pubQuant = on
}

// publishOptsLocked returns the PublishOut options for the current
// publication mode. Caller holds pmMu.
func (f *Framework) publishOptsLocked() []mirror.PublishOption {
	if f.pubQuant {
		return []mirror.PublishOption{mirror.WithQuantized()}
	}
	return nil
}

// Publish seals the current enclave parameters into a new immutable
// published version in PM and returns its version number. Publishing
// is safe concurrently with Train: it synchronizes on the iteration
// boundary and writes a snapshot region training never touches.
func (f *Framework) Publish() (uint64, error) {
	f.modelMu.Lock()
	defer f.modelMu.Unlock()
	if f.crashed {
		return 0, ErrCrashedDown
	}
	f.pmMu.Lock()
	defer f.pmMu.Unlock()
	if err := f.attachPublication(); err != nil {
		return 0, err
	}
	var ver uint64
	err := f.Enclave.Ecall(func() error {
		v, err := f.pub.PublishOut(f.Engine, f.Net, f.publishOptsLocked()...)
		ver = v
		return err
	})
	if err != nil {
		return 0, fmt.Errorf("core: publish model: %w", err)
	}
	return ver, nil
}

// LatestPublished returns the most recent published model version, 0
// if nothing has been published.
func (f *Framework) LatestPublished() (uint64, error) {
	f.pmMu.Lock()
	defer f.pmMu.Unlock()
	if err := f.pmLiveLocked(); err != nil {
		return 0, err
	}
	if !mirror.PublicationExists(f.Rom) {
		return 0, nil
	}
	if err := f.attachPublication(); err != nil {
		return 0, err
	}
	return f.pub.LatestVersion(), nil
}

// PinPublished pins a published version (0 pins the latest) against
// slot recycling and returns the hold. Replicas pin before restoring.
func (f *Framework) PinPublished(version uint64) (*mirror.Pin, error) {
	f.pmMu.Lock()
	defer f.pmMu.Unlock()
	if err := f.attachPublication(); err != nil {
		return nil, err
	}
	return f.pub.Pin(version)
}

// Servable reports whether the framework can publish and serve a
// model: nil, or a sentinel explaining why not (errors.Is-matchable
// against ErrCrashedDown and ErrNoServableModel).
func (f *Framework) Servable() error {
	f.modelMu.Lock()
	crashed := f.crashed
	trained := f.Net != nil && f.Net.Iteration > 0
	f.modelMu.Unlock()
	if crashed {
		return ErrCrashedDown
	}
	if f.Data != nil {
		return nil
	}
	// Dataset-less framework: servable only if a previous run left a
	// published snapshot or a mirrored model in PM to serve from.
	f.pmMu.Lock()
	defer f.pmMu.Unlock()
	if err := f.pmLiveLocked(); err != nil {
		return err
	}
	if mirror.PublicationExists(f.Rom) {
		if err := f.attachPublication(); err != nil {
			return err
		}
		if f.pub.LatestVersion() > 0 {
			return nil
		}
	}
	if trained || mirror.Exists(f.Rom) {
		return nil
	}
	return ErrNoServableModel
}

// RotateKey provisions a fresh data key and re-seals every persistent
// object under it in one durable transaction (mirror.RotateKey): the
// training data matrix, the PM training mirror, and a newly published
// model snapshot, whose version is returned. The enclave switches keys
// only once that transaction has committed (Recover adopts the new key
// if a crash beat the switch). The in-enclave model is untouched, so
// training continues seamlessly; serving replicas must be re-provisioned
// afterwards (Server.RotateKey drives that, one replica at a time, so
// serving never gaps).
//
// Snapshots published under the old key remain in PM until recycled
// but can no longer be decrypted; after RotateKey, replicas must
// refresh to the returned (or a later) version.
func (f *Framework) RotateKey() (uint64, error) {
	f.modelMu.Lock()
	defer f.modelMu.Unlock()
	if f.crashed {
		return 0, ErrCrashedDown
	}
	newKey, err := engine.GenerateKey(rand.Reader)
	if err != nil {
		return 0, fmt.Errorf("core: rotate keygen: %w", err)
	}
	f.pmMu.Lock()
	defer f.pmMu.Unlock()
	var ver uint64
	err = f.Enclave.Ecall(func() error {
		// Attach the training mirror with the old engine first, so a
		// lazily-recovered model is restored before the key flips.
		if f.Mirror == nil && mirror.Exists(f.Rom) {
			if err := f.attachMirror(); err != nil {
				return err
			}
		}
		eng, err := engine.New(newKey, engine.WithEnclave(f.Enclave))
		if err != nil {
			return fmt.Errorf("new engine: %w", err)
		}
		if err := f.attachPublication(); err != nil {
			return err
		}
		ver, err = mirror.RotateKey(f.Engine, eng, newKey, f.Net, f.pub, f.Mirror, f.Data, f.publishOptsLocked()...)
		if err != nil {
			return err
		}
		f.key, f.Engine = newKey, eng
		return nil
	})
	if err != nil {
		return 0, fmt.Errorf("core: rotate key: %w", err)
	}
	return ver, nil
}
