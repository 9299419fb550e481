package core

import (
	"crypto/rand"
	"fmt"

	"plinius/internal/engine"
	"plinius/internal/mirror"
)

// Model publication and key rotation: the framework side of the v2
// serving handshake. The training mirror and every published version
// are frames of one snapshot store in PM (package mirror): Publish
// records the enclave model as the next version — by reference when the
// mirror's latest generation holds it, else with one save — and
// replicas restore a pinned version, whose frame no save writes, so
// Server.Refresh never races a concurrent MirrorOut. RotateKey
// re-provisions the data key and re-seals what the store names under
// it.

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
	if f.Mirror.Iteration() <= f.Net.Iteration {
		return nil
	}
	return f.Enclave.Ecall(func() error {
		_, err := f.Mirror.MirrorIn(f.Net)
		f.synced = err == nil
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

// Publish records the enclave model as a new immutable published
// version in PM and returns its version number. When the model is the
// training mirror's latest generation — Net is at the mirror's
// iteration and no parameter write came after the last MirrorOut or
// MirrorIn — the version names the mirror's frame in one small
// transaction, sealing nothing. Otherwise it costs one save: a
// MirrorOut that the version names, in the same transaction, or with
// no training mirror attached (MirrorFreq < 0, or before the first
// Train or MirrorSave) a frame only the version names. So parameters
// written straight into Net's slices are published only after a
// MirrorSave. Publishing is safe concurrently with Train: it
// synchronizes on the iteration boundary, and no save writes a frame a
// version names.
func (f *Framework) Publish() (uint64, error) {
	f.modelMu.Lock()
	defer f.modelMu.Unlock()
	if f.crashed {
		return 0, ErrCrashedDown
	}
	f.pmMu.Lock()
	defer f.pmMu.Unlock()
	if err := f.attachStore(); err != nil {
		return 0, err
	}
	opts := f.publishOptsLocked()
	var ver uint64
	err := f.Enclave.Ecall(func() (err error) {
		switch m := f.Mirror; {
		case m != nil && f.synced && m.Holds(f.Net.Iteration):
			ver, err = m.PublishLatest(f.Net, opts...)
		case m != nil:
			ver, err = m.PublishOut(f.Net, opts...)
			f.synced = err == nil
		default:
			ver, err = f.store.PublishOut(f.Engine, f.Net, opts...)
		}
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
	if err := f.attachStore(); err != nil {
		return 0, err
	}
	return f.store.LatestVersion(), nil
}

// PinPublished pins the latest published version, so no save writes its
// frame, and returns the hold. Replicas pin before restoring.
func (f *Framework) PinPublished() (*mirror.Pin, error) {
	f.pmMu.Lock()
	defer f.pmMu.Unlock()
	if err := f.attachStore(); err != nil {
		return nil, err
	}
	return f.store.Pin()
}

// pinServing pins the latest published version and returns it with the
// data key it is sealed under and that key's epoch. Publish and
// RotateKey write the latest version under modelMu, which is held
// across the pin, so the key and the version always belong together.
func (f *Framework) pinServing() (*mirror.Pin, []byte, uint64, error) {
	f.modelMu.Lock()
	defer f.modelMu.Unlock()
	pin, err := f.PinPublished()
	if err != nil {
		return nil, nil, 0, err
	}
	return pin, append([]byte(nil), f.key...), f.keyEpoch, nil
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
	if err := f.attachStore(); err != nil {
		return err
	}
	if trained || f.store.LatestVersion() > 0 || mirror.Exists(f.Rom) {
		return nil
	}
	return ErrNoServableModel
}

// RotateKey provisions a fresh data key and re-seals every persistent
// object under it in one durable transaction (mirror.RotateKey): the
// training data matrix, and the enclave model as one new frame that is
// both the training mirror's latest generation and a newly published
// version, whose version is returned. The enclave switches keys
// only once that transaction has committed (Recover adopts the new key
// if a crash beat the switch). The in-enclave model is untouched, so
// training continues seamlessly.
//
// Frames that pinned readers still hold keep the old key until
// released: serving groups go on answering under it, and their next
// Refresh provisions the new key into their enclaves and restores the
// returned (or a later) version.
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
		if err := f.attachStore(); err != nil {
			return err
		}
		ver, err = mirror.RotateKey(f.Engine, eng, newKey, f.Net, f.store, f.Mirror, f.Data, f.publishOptsLocked()...)
		if err != nil {
			return err
		}
		f.key, f.Engine = newKey, eng
		f.keyEpoch++
		f.synced = f.Mirror != nil
		return nil
	})
	if err != nil {
		return 0, fmt.Errorf("core: rotate key: %w", err)
	}
	return ver, nil
}
