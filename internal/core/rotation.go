package core

import (
	"errors"
	"fmt"

	"plinius/internal/darknet"
	"plinius/internal/engine"
	"plinius/internal/mirror"
)

// Crash-safe key rotation recovery: RotateKey persists a rotation
// marker (mirror.BeginRotation) before the first row is resealed, so a
// crash mid-rotation — which leaves the data matrix with mixed key
// epochs and the mirror and publication under either key — is detected
// by Recover and finished instead of surfacing as an authentication
// failure on first use. RotateKey switches the enclave to the new key
// before the marker clears, so the recovering enclave holds either key;
// the marker carries each key sealed under the other.

// rewindRotation reads the rotation marker and, when a crash tore a
// rotation, sets the enclave's key and engine to the pre-rotation ones
// and returns the marker and the new key for finishRotation. It
// returns a nil marker when no rotation is in progress. Called from
// Recover with modelMu and pmMu held, before the data matrix is
// re-attached.
func (f *Framework) rewindRotation() (*mirror.Rotation, []byte, error) {
	rot, inProgress, err := mirror.OpenRotation(f.Rom)
	if err != nil {
		return nil, nil, fmt.Errorf("core: open rotation marker: %w", err)
	}
	if !inProgress {
		return nil, nil, nil
	}
	var newKey []byte
	err = f.Enclave.Ecall(func() error {
		key, err := rot.NewKey(f.Engine)
		if err == nil {
			newKey = key
			return nil
		}
		if !errors.Is(err, engine.ErrAuth) {
			return fmt.Errorf("core: recover rotation key: %w", err)
		}
		// The enclave already holds the new key: unwrap the old one.
		oldKey, err := rot.OldKey(f.Engine)
		if err != nil {
			return fmt.Errorf("core: recover pre-rotation key: %w", err)
		}
		oldEng, err := engine.New(oldKey, engine.WithEnclave(f.Enclave))
		if err != nil {
			return fmt.Errorf("core: recover pre-rotation engine: %w", err)
		}
		newKey, f.key, f.Engine = f.key, oldKey, oldEng
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return rot, newKey, nil
}

// finishRotation completes a torn rotation to newKey: reseal the
// remaining data rows from the recorded cursor, bring the training
// mirror to the new key (whichever epoch the crash left it in),
// republish, and clear the marker. Called from Recover with modelMu and
// pmMu held, after rewindRotation and the data matrix re-attach, and
// before any mirror restore, so no mixed-epoch state is ever decrypted
// with a single key.
func (f *Framework) finishRotation(rot *mirror.Rotation, newKey []byte) error {
	return f.Enclave.Ecall(func() error {
		newEng, err := engine.New(newKey, engine.WithEnclave(f.Enclave))
		if err != nil {
			return fmt.Errorf("core: recover rotation engine: %w", err)
		}
		if f.Data != nil {
			next, err := rot.NextRow()
			if err != nil {
				return fmt.Errorf("core: rotation cursor: %w", err)
			}
			if err := f.Data.ResealFrom(newEng, next, rot.Advance); err != nil {
				return fmt.Errorf("core: finish data reseal: %w", err)
			}
		}
		restored := false
		if mirror.Exists(f.Rom) {
			m, err := mirror.OpenModel(f.Rom, f.Engine, mirror.WithEnclave(f.Enclave))
			if err != nil {
				return fmt.Errorf("core: open mirror mid-rotation: %w", err)
			}
			// The crash may have hit before or after the mirror was
			// resealed: probe with the old key first, then the new.
			if _, err := m.MirrorIn(f.Net); err == nil {
				// Old epoch: restore succeeded, reseal under the new key.
				m.SetEngine(newEng)
				if err := m.MirrorOut(f.Net); err != nil {
					return fmt.Errorf("core: reseal mirror: %w", err)
				}
			} else if errors.Is(err, engine.ErrAuth) {
				// New epoch already: just adopt it.
				m.SetEngine(newEng)
				if _, err := m.MirrorIn(f.Net); err != nil {
					return fmt.Errorf("core: restore resealed mirror: %w", err)
				}
			} else {
				return fmt.Errorf("core: restore mirror mid-rotation: %w", err)
			}
			f.Mirror = m
			restored = true
		}
		// With mirroring off the served model lives only in the
		// publication table: restore it into the enclave (same
		// two-epoch probe) so the republish below re-seals the trained
		// weights — not the random ones Recover just built.
		if !restored && mirror.PublicationExists(f.Rom) {
			if err := f.attachPublication(); err != nil {
				return err
			}
			if f.pub.LatestVersion() > 0 {
				pin, err := f.pub.Pin(0)
				if err != nil {
					return fmt.Errorf("core: pin published mid-rotation: %w", err)
				}
				m, err := pin.Open(f.Engine, darknet.FP32, mirror.WithEnclave(f.Enclave))
				if err != nil {
					pin.Release()
					return fmt.Errorf("core: open published mid-rotation: %w", err)
				}
				if _, err := m.MirrorIn(f.Net); err != nil {
					if !errors.Is(err, engine.ErrAuth) {
						pin.Release()
						return fmt.Errorf("core: restore published mid-rotation: %w", err)
					}
					m.SetEngine(newEng)
					if _, err := m.MirrorIn(f.Net); err != nil {
						pin.Release()
						return fmt.Errorf("core: restore republished snapshot: %w", err)
					}
				}
				pin.Release()
				restored = true
			}
		}
		f.key = newKey
		f.Engine = newEng
		// Republish only a restored model: a framework that never had a
		// mirror or publication has nothing served, and publishing
		// Recover's fresh random weights would supersede nothing worth
		// keeping anyway — worse, with a stale publication it would
		// replace trained weights with noise.
		if restored {
			if err := f.attachPublication(); err != nil {
				return err
			}
			if _, err := f.pub.PublishOut(newEng, f.Net); err != nil {
				return fmt.Errorf("core: republish under rotated key: %w", err)
			}
		}
		if err := rot.Finish(); err != nil {
			return fmt.Errorf("core: finish rotation: %w", err)
		}
		return nil
	})
}
